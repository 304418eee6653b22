package workload

import (
	"math"
	"testing"
	"time"

	"mccs/internal/collective"
	"mccs/internal/mccsd"
	"mccs/internal/ncclsim"
	"mccs/internal/netsim"
	"mccs/internal/sim"
	"mccs/internal/spec"
	"mccs/internal/topo"
)

func TestTraceValidation(t *testing.T) {
	for _, tr := range []Trace{
		VGG19DataParallel(1),
		GPT27BTensorParallel(1),
	} {
		if err := tr.Validate(); err != nil {
			t.Errorf("%s: %v", tr.Name, err)
		}
		var bytes int64
		var compute time.Duration
		for _, p := range tr.Phases {
			if p.Kind == Collective {
				bytes += p.Bytes
			} else {
				compute += p.Duration
			}
		}
		if bytes <= 0 {
			t.Errorf("%s: no communication", tr.Name)
		}
		if compute <= 0 {
			t.Errorf("%s: no compute", tr.Name)
		}
	}
	for _, tr := range ProductGroupProfiles() {
		if err := tr.Validate(); err != nil {
			t.Errorf("%s: %v", tr.Name, err)
		}
	}
	bad := Trace{Name: "bad", Phases: []Phase{{Kind: Compute, Duration: 0}}}
	if err := bad.Validate(); err == nil {
		t.Error("zero-duration phase accepted")
	}
	bad2 := Trace{Name: "bad2", Phases: []Phase{{Kind: Collective, Bytes: 0}}}
	if err := bad2.Validate(); err == nil {
		t.Error("zero-byte collective accepted")
	}
	if err := (&Trace{Name: "empty"}).Validate(); err == nil {
		t.Error("empty trace accepted")
	}
}

func TestVGGTraceShape(t *testing.T) {
	tr := VGG19DataParallel(1)
	var bytes int64
	overlapped := 0
	for _, p := range tr.Phases {
		if p.Kind == Collective {
			if !p.Overlap {
				t.Error("VGG buckets should overlap backward")
			}
			bytes += p.Bytes
			overlapped++
		}
	}
	// ~575 MB of gradients across overlapped buckets.
	if bytes < 500e6 || bytes > 650e6 {
		t.Errorf("VGG gradient bytes = %d", bytes)
	}
	if overlapped != 4 {
		t.Errorf("VGG buckets = %d, want 4", overlapped)
	}
}

func TestGPTTraceShape(t *testing.T) {
	tr := GPT27BTensorParallel(1)
	colls := 0
	for _, p := range tr.Phases {
		if p.Kind == Collective {
			colls++
			if p.Overlap {
				t.Error("TP all-reduces are on the critical path, not overlapped")
			}
			if p.Op != collective.AllReduce {
				t.Errorf("TP collective = %v", p.Op)
			}
		}
	}
	if colls != 64 {
		t.Errorf("GPT collectives per iteration = %d, want 64 (2 per layer)", colls)
	}
}

func newEnv() (*sim.Scheduler, *mccsd.Deployment) {
	cluster, err := topo.BuildClos(topo.TestbedConfig())
	if err != nil {
		panic(err)
	}
	s := sim.New()
	fb := netsim.NewFabric(s, cluster.Net)
	return s, mccsd.NewDeployment(s, cluster, fb, ncclsim.Config(ncclsim.MCCS))
}

func TestRunnerExecutesJob(t *testing.T) {
	s, d := newEnv()
	gpus := []topo.GPUID{d.Cluster.Hosts[0].GPUs[0], d.Cluster.Hosts[1].GPUs[0],
		d.Cluster.Hosts[2].GPUs[0], d.Cluster.Hosts[3].GPUs[0]}
	// A ResNet-50 data-parallel iteration: 120 ms of compute, then one
	// 100 MB gradient AllReduce.
	resnet := Trace{Name: "resnet50-dp", Phases: []Phase{
		{Kind: Compute, Duration: 120 * time.Millisecond},
		{Kind: Collective, Op: collective.AllReduce, Bytes: 100 << 20},
	}}
	fut := Launch(RunConfig{
		Dep: d, App: "train", Key: "j1", GPUs: gpus,
		Trace: resnet, Iterations: 5,
	})
	var res *Result
	s.Go("wait", func(p *sim.Proc) { res = fut.Wait(p) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if len(res.IterTimes) != 5 {
		t.Fatalf("iterations recorded = %d", len(res.IterTimes))
	}
	if res.JCT() <= 0 {
		t.Error("non-positive JCT")
	}
	// ResNet iteration: 120ms compute + 100MB AllReduce; comm must be a
	// visible fraction.
	bd := res.Breakdown
	sum := bd.Compute + bd.Memcpy + bd.Comm + bd.Idle
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("breakdown sums to %g", sum)
	}
	if bd.Comm <= 0 || bd.Compute <= 0 {
		t.Errorf("breakdown = %+v", bd)
	}
	if len(res.IterEnds) != 5 {
		t.Errorf("IterEnds = %d", len(res.IterEnds))
	}
	for i := 1; i < len(res.IterEnds); i++ {
		if res.IterEnds[i] <= res.IterEnds[i-1] {
			t.Error("IterEnds not increasing")
		}
	}
}

func TestOverlapHidesCommunication(t *testing.T) {
	// The same bytes take less wall time when buckets overlap compute.
	run := func(overlap bool) time.Duration {
		s, d := newEnv()
		gpus := []topo.GPUID{d.Cluster.Hosts[0].GPUs[0], d.Cluster.Hosts[1].GPUs[0],
			d.Cluster.Hosts[2].GPUs[0], d.Cluster.Hosts[3].GPUs[0]}
		tr := Trace{Name: "x"}
		for b := 0; b < 4; b++ {
			tr.Phases = append(tr.Phases,
				Phase{Kind: Compute, Duration: 40 * time.Millisecond},
				Phase{Kind: Collective, Op: collective.AllReduce, Bytes: 64 << 20, Overlap: overlap},
			)
		}
		fut := Launch(RunConfig{Dep: d, App: "train", Key: "j", GPUs: gpus, Trace: tr, Iterations: 3})
		var res *Result
		s.Go("wait", func(p *sim.Proc) { res = fut.Wait(p) })
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		return res.JCT()
	}
	sync := run(false)
	async := run(true)
	if async >= sync {
		t.Errorf("overlapped JCT %v >= synchronous %v", async, sync)
	}
}

func TestLaunchRejectsBadTrace(t *testing.T) {
	s, d := newEnv()
	fut := Launch(RunConfig{
		Dep: d, App: "x", Key: "k", GPUs: []topo.GPUID{0},
		Trace: Trace{Name: "empty"},
	})
	var res *Result
	s.Go("wait", func(p *sim.Proc) { res = fut.Wait(p) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if res.Err == nil {
		t.Error("invalid trace accepted")
	}
}

func TestBreakdownProfilesDiffer(t *testing.T) {
	// The four Fig. 2 profiles must produce distinct breakdown shapes:
	// B memcpy-heavier than A, C compute-heavier than everyone.
	s, d := newEnv()
	profiles := ProductGroupProfiles()
	results := make([]*Result, len(profiles))
	for i, tr := range profiles {
		i := i
		gpus := []topo.GPUID{d.Cluster.Hosts[0].GPUs[i%2], d.Cluster.Hosts[1].GPUs[i%2]}
		if i >= 2 {
			gpus = []topo.GPUID{d.Cluster.Hosts[2].GPUs[i%2], d.Cluster.Hosts[3].GPUs[i%2]}
		}
		fut := Launch(RunConfig{
			Dep: d, App: spec.AppID(rune('a' + i)), Key: "grp" + tr.Name, GPUs: gpus,
			Trace: tr, Iterations: 3,
		})
		s.Go("wait", func(p *sim.Proc) { results[i] = fut.Wait(p) })
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("profile %d: %v", i, r.Err)
		}
		if r.Breakdown.Comm <= 0 {
			t.Errorf("profile %d has no communication fraction", i)
		}
	}
	if results[1].Breakdown.Memcpy <= results[0].Breakdown.Memcpy {
		t.Error("group B should be memcpy-heavier than group A")
	}
	if results[2].Breakdown.Compute <= results[0].Breakdown.Compute {
		t.Error("group C should be compute-heavier than group A")
	}
}
