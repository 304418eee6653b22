package mccsd

import (
	"testing"

	"mccs/internal/sim"
	"mccs/internal/topo"
)

func TestCommDestroyLifecycle(t *testing.T) {
	s, d := newDeployment(DefaultConfig())
	gpus := oneGPUPerHost(d)
	const count = 256
	launchRanks(s, d, "appA", gpus, func(p *sim.Proc, rank int, f *Frontend, gpu topo.GPUID) {
		buf, _ := f.MemAlloc(p, gpu, count*4, false)
		comm, err := f.CommInitRank(p, "job0", len(gpus), rank, gpu)
		if err != nil {
			t.Error(err)
			return
		}
		h, _ := comm.AllReduce(p, nil, buf, count, nil)
		h.Wait(p)
		if err := comm.Destroy(p); err != nil {
			t.Errorf("rank %d destroy: %v", rank, err)
		}
		// Everything after destroy is rejected.
		if _, err := comm.AllReduce(p, nil, buf, count, nil); err == nil {
			t.Error("collective on destroyed comm accepted")
		}
		if _, err := comm.Send(p, buf, count, (rank+1)%len(gpus), nil); err == nil {
			t.Error("p2p on destroyed comm accepted")
		}
		if err := comm.Destroy(p); err == nil {
			t.Error("double destroy accepted")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(d.View()) != 0 || d.NumComms() != 0 {
		t.Fatalf("view still has %d comms after destroy, NumComms %d", len(d.View()), d.NumComms())
	}
	if _, ok := d.Comm(1); ok {
		t.Error("internal comm object still registered")
	}
}

func TestDestroyOneCommLeavesOthers(t *testing.T) {
	s, d := newDeployment(DefaultConfig())
	gpus := oneGPUPerHost(d)
	const count = 64
	launchRanks(s, d, "appA", gpus, func(p *sim.Proc, rank int, f *Frontend, gpu topo.GPUID) {
		buf, _ := f.MemAlloc(p, gpu, count*4, false)
		c1, err := f.CommInitRank(p, "job1", len(gpus), rank, gpu)
		if err != nil {
			t.Error(err)
			return
		}
		c2, err := f.CommInitRank(p, "job2", len(gpus), rank, gpu)
		if err != nil {
			t.Error(err)
			return
		}
		if err := c1.Destroy(p); err != nil {
			t.Error(err)
		}
		// The surviving communicator still works.
		h, err := c2.AllReduce(p, nil, buf, count, nil)
		if err != nil {
			t.Error(err)
			return
		}
		h.Wait(p)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := len(d.View()); got != 1 || d.NumComms() != 1 {
		t.Fatalf("view has %d comms, NumComms %d, want 1", got, d.NumComms())
	}
}
