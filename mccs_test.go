// Public-API smoke tests: everything a downstream user touches through the
// root package works end to end.
package mccs_test

import (
	"testing"
	"time"

	"mccs"
)

func TestPublicAPIQuickstart(t *testing.T) {
	env, err := mccs.NewTestbed(mccs.SystemMCCS)
	if err != nil {
		t.Fatal(err)
	}
	var gpus []mccs.GPUID
	for _, h := range env.Cluster().Hosts {
		gpus = append(gpus, h.GPUs[0])
	}
	const count = 4096
	results := make([][]float32, len(gpus))
	for rank, gpu := range gpus {
		rank, gpu := rank, gpu
		env.Scheduler().Go("rank", func(p *mccs.Proc) {
			f := env.Frontend(gpu, "api-test")
			buf, err := f.MemAlloc(p, gpu, count*4, true)
			if err != nil {
				t.Error(err)
				return
			}
			for i := range buf.Data() {
				buf.Data()[i] = float32(rank)
			}
			comm, err := f.CommInitRank(p, "job", len(gpus), rank, gpu)
			if err != nil {
				t.Error(err)
				return
			}
			h, err := comm.AllReduce(p, nil, buf, count, nil)
			if err != nil {
				t.Error(err)
				return
			}
			stats := h.Wait(p)
			if stats.AlgBW() <= 0 {
				t.Error("non-positive bandwidth")
			}
			results[rank] = buf.Data()
		})
	}
	if err := env.Scheduler().Run(); err != nil {
		t.Fatal(err)
	}
	want := float32(0 + 1 + 2 + 3)
	for rank, data := range results {
		if data == nil {
			t.Fatalf("rank %d missing", rank)
		}
		for i, v := range data {
			if v != want {
				t.Fatalf("rank %d elem %d = %g, want %g", rank, i, v, want)
			}
		}
	}
}

func TestPublicAPIControllerAndManagement(t *testing.T) {
	env, err := mccs.NewTestbed(mccs.SystemMCCS)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := env.Controller()
	var gpus []mccs.GPUID
	for _, h := range env.Cluster().Hosts {
		gpus = append(gpus, h.GPUs[0])
	}
	for rank, gpu := range gpus {
		rank, gpu := rank, gpu
		env.Scheduler().Go("rank", func(p *mccs.Proc) {
			f := env.Frontend(gpu, "app")
			buf, _ := f.MemAlloc(p, gpu, 1<<20, false)
			comm, err := f.CommInitRank(p, "job", len(gpus), rank, gpu)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 3; i++ {
				h, _ := comm.AllReduce(p, nil, buf, 1<<18, nil)
				h.Wait(p)
			}
		})
	}
	env.Scheduler().GoDaemon("controller", func(p *mccs.Proc) {
		for len(env.Deployment().View()) < 1 {
			p.Sleep(time.Millisecond)
		}
		if err := ctrl.ApplyFFA(); err != nil {
			t.Error(err)
		}
	})
	if err := env.Scheduler().Run(); err != nil {
		t.Fatal(err)
	}
	view := env.Deployment().View()
	if len(view) != 1 {
		t.Fatalf("view = %d comms", len(view))
	}
	tr, err := env.Deployment().CommTrace(view[0].ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr) != 3 {
		t.Fatalf("trace = %d entries, want 3", len(tr))
	}
}

func TestPublicAPICustomCluster(t *testing.T) {
	cfg := mccs.TestbedConfig()
	cfg.Leaves = 3
	env, err := mccs.NewCluster(cfg, mccs.SystemNCCL)
	if err != nil {
		t.Fatal(err)
	}
	if env.Cluster().NumRacks() != 3 {
		t.Fatalf("racks = %d", env.Cluster().NumRacks())
	}
	if _, err := mccs.NewLargeCluster(mccs.SystemMCCS); err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.Spines = 0
	if _, err := mccs.NewCluster(bad, mccs.SystemMCCS); err == nil {
		t.Fatal("invalid cluster accepted")
	}
}

func TestPublicAPIFatTree(t *testing.T) {
	env, err := mccs.NewFatTreeCluster(mccs.FatTreeConfig{
		Pods: 2, AggsPerPod: 2, CoresPerAgg: 1,
		LeavesPerPod: 2, HostsPerLeaf: 1, GPUsPerHost: 1, NICsPerHost: 1,
		NICBps: 100 * 125e6, LeafAggBps: 100 * 125e6, AggCoreBps: 100 * 125e6,
	}, mccs.SystemMCCS)
	if err != nil {
		t.Fatal(err)
	}
	// One rank per host across both pods: the provider's locality ring
	// must group pods; the AllReduce must still be exact.
	var gpus []mccs.GPUID
	for _, h := range env.Cluster().Hosts {
		gpus = append(gpus, h.GPUs[0])
	}
	const count = 512
	results := make([][]float32, len(gpus))
	for rank, gpu := range gpus {
		rank, gpu := rank, gpu
		env.Scheduler().Go("rank", func(p *mccs.Proc) {
			f := env.Frontend(gpu, "ft")
			buf, _ := f.MemAlloc(p, gpu, count*4, true)
			for i := range buf.Data() {
				buf.Data()[i] = 2
			}
			comm, err := f.CommInitRank(p, "job", len(gpus), rank, gpu)
			if err != nil {
				t.Error(err)
				return
			}
			h, err := comm.AllReduce(p, nil, buf, count, nil)
			if err != nil {
				t.Error(err)
				return
			}
			h.Wait(p)
			results[rank] = buf.Data()
		})
	}
	if err := env.Scheduler().Run(); err != nil {
		t.Fatal(err)
	}
	want := float32(2 * len(gpus))
	for rank, data := range results {
		if data == nil || data[0] != want {
			t.Fatalf("rank %d result wrong", rank)
		}
	}
}
