package proxy

import (
	"testing"

	"mccs/internal/collective"
	"mccs/internal/sim"
	"mccs/internal/spec"
	"mccs/internal/topo"
)

// hdComm builds a communicator whose strategy selects halving-doubling
// AllReduce with nch channels.
func (r *rig) hdComm(t *testing.T, gpus []topo.GPUID, nch int, threshold int64) *Comm {
	t.Helper()
	info := spec.CommInfo{ID: 3, App: "hd"}
	for i, g := range gpus {
		info.Ranks = append(info.Ranks, spec.RankInfo{
			Rank: i, GPU: g,
			Host: r.cluster.HostOfGPU(g),
			NIC:  r.cluster.NICOfGPU(g),
		})
	}
	order := make([]int, len(gpus))
	for i := range order {
		order[i] = i
	}
	for ci := 0; ci < nch; ci++ {
		info.Strategy.Channels = append(info.Strategy.Channels, spec.ChannelSpec{Order: order, Route: ci})
	}
	info.Strategy.Algorithm = spec.AlgoHD
	info.Strategy.TreeThreshold = threshold
	comm, err := NewComm(r.s, r.cluster, r.engines, r.devices, info, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return comm
}

// allGPUs returns every GPU of the testbed in host order (8 on the
// 4-host testbed), so slices of it give non-power-of-two rank counts.
func (r *rig) allGPUs() []topo.GPUID {
	var gpus []topo.GPUID
	for _, h := range r.cluster.Hosts {
		gpus = append(gpus, h.GPUs...)
	}
	return gpus
}

func TestHDAllReduceCorrectnessThroughStack(t *testing.T) {
	r := newRig(t)
	gpus := r.fourHostGPUs()
	comm := r.hdComm(t, gpus, 1, 0)
	const count = 777 // not divisible by 4: uneven regions
	bufs, want := backedBuffers(t, r, gpus, count, 21)
	r.s.Go("driver", func(p *sim.Proc) {
		runAllReduce(p, comm, bufs, count)
		for i, b := range bufs {
			for j := 0; j < count; j++ {
				if b.Data()[j] != want[j] {
					t.Fatalf("rank %d elem %d = %g, want %g", i, j, b.Data()[j], want[j])
				}
			}
		}
	})
	if err := r.s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestHDNonPowerOfTwoThroughStack(t *testing.T) {
	r := newRig(t)
	for _, nranks := range []int{2, 3, 5, 6, 7} {
		gpus := r.allGPUs()[:nranks]
		comm := r.hdComm(t, gpus, 1, 0)
		comm.Info.ID = spec.CommID(100 + nranks) // distinct IDs per sub-communicator
		const count = 513
		bufs, want := backedBuffers(t, r, gpus, count, int64(30+nranks))
		ok := false
		r.s.Go("driver", func(p *sim.Proc) {
			runAllReduce(p, comm, bufs, count)
			for i, b := range bufs {
				for j := 0; j < count; j++ {
					if b.Data()[j] != want[j] {
						t.Fatalf("n=%d rank %d elem %d = %g, want %g", nranks, i, j, b.Data()[j], want[j])
					}
				}
			}
			ok = true
		})
		if err := r.s.Run(); err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("n=%d: driver did not finish", nranks)
		}
	}
}

func TestHDMultiChannelAndOtherOps(t *testing.T) {
	r := newRig(t)
	gpus := r.allGPUs()
	comm := r.hdComm(t, gpus, 2, 0)
	const count = 1000
	bufs, want := backedBuffers(t, r, gpus, count, 40)
	r.s.Go("driver", func(p *sim.Proc) {
		runAllReduce(p, comm, bufs, count)
		for i, b := range bufs {
			for j := 0; j < count; j++ {
				if b.Data()[j] != want[j] {
					t.Fatalf("rank %d elem %d = %g, want %g", i, j, b.Data()[j], want[j])
				}
			}
		}
		// Non-AllReduce ops still run their ring schedules under AlgoHD.
		small := int64(64)
		futs := make([]*opDone, len(gpus))
		for i, rn := range comm.Runners {
			futs[i] = newOpDone(r.s)
			rn.Enqueue(&OpRequest{
				Op: collective.Broadcast, Root: 3, Count: small,
				SendBuf: bufs[i], RecvBuf: bufs[i], OnComplete: futs[i],
			})
		}
		for _, f := range futs {
			f.Wait(p)
		}
		for i, b := range bufs {
			for j := int64(0); j < small; j++ {
				if b.Data()[j] != bufs[3].Data()[j] {
					t.Fatalf("rank %d broadcast elem %d wrong under hd strategy", i, j)
				}
			}
		}
	})
	if err := r.s.Run(); err != nil {
		t.Fatal(err)
	}
}

// Reconfiguring between ring and halving-doubling mid-run must preserve
// correctness in both directions (the autotuner's install path).
func TestHDReconfigureBetweenAlgorithms(t *testing.T) {
	r := newRig(t)
	gpus := r.fourHostGPUs()
	order := []int{0, 1, 2, 3}
	comm := r.commOn(t, gpus, [][]int{order})
	const count = 640
	r.s.Go("driver", func(p *sim.Proc) {
		bufs, want := backedBuffers(t, r, gpus, count, 41)
		runAllReduce(p, comm, bufs, count)
		for j := 0; j < count; j++ {
			if bufs[0].Data()[j] != want[j] {
				t.Fatalf("ring phase elem %d wrong", j)
			}
		}

		toHD := comm.Strategy()
		toHD.Algorithm = spec.AlgoHD
		latch := sim.NewLatch(len(comm.Runners))
		for _, rn := range comm.Runners {
			rn.Enqueue(&ReconfigRequest{Strategy: toHD, Done: latch})
		}
		latch.Wait(p)
		bufs2, want2 := backedBuffers(t, r, gpus, count, 42)
		runAllReduce(p, comm, bufs2, count)
		for i, b := range bufs2 {
			for j := 0; j < count; j++ {
				if b.Data()[j] != want2[j] {
					t.Fatalf("hd phase rank %d elem %d = %g, want %g", i, j, b.Data()[j], want2[j])
				}
			}
		}

		toRing := comm.Strategy()
		toRing.Algorithm = spec.AlgoRing
		latch2 := sim.NewLatch(len(comm.Runners))
		for _, rn := range comm.Runners {
			rn.Enqueue(&ReconfigRequest{Strategy: toRing, Done: latch2})
		}
		latch2.Wait(p)
		bufs3, want3 := backedBuffers(t, r, gpus, count, 43)
		runAllReduce(p, comm, bufs3, count)
		for i, b := range bufs3 {
			for j := 0; j < count; j++ {
				if b.Data()[j] != want3[j] {
					t.Fatalf("ring-again phase rank %d elem %d wrong", i, j)
				}
			}
		}
	})
	if err := r.s.Run(); err != nil {
		t.Fatal(err)
	}
}

// Below the tree threshold the tree still wins the dispatch even under
// AlgoHD — the composition the tuner relies on.
func TestHDComposesWithTreeThreshold(t *testing.T) {
	r := newRig(t)
	gpus := r.fourHostGPUs()
	comm := r.hdComm(t, gpus, 1, 4096)
	r.s.Go("driver", func(p *sim.Proc) {
		// 512 elements = 2 KB < threshold: tree path.
		bufs, want := backedBuffers(t, r, gpus, 512, 44)
		runAllReduce(p, comm, bufs, 512)
		for j := 0; j < 512; j++ {
			if bufs[1].Data()[j] != want[j] {
				t.Fatalf("tree-path elem %d wrong", j)
			}
		}
		// 4096 elements = 16 KB > threshold: hd path.
		bufs2, want2 := backedBuffers(t, r, gpus, 4096, 45)
		runAllReduce(p, comm, bufs2, 4096)
		for j := 0; j < 4096; j++ {
			if bufs2[2].Data()[j] != want2[j] {
				t.Fatalf("hd-path elem %d wrong", j)
			}
		}
	})
	if err := r.s.Run(); err != nil {
		t.Fatal(err)
	}
}
