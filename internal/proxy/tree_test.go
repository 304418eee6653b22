package proxy

import (
	"testing"
	"time"

	"mccs/internal/collective"
	"mccs/internal/gpusim"
	"mccs/internal/sim"
	"mccs/internal/spec"
	"mccs/internal/topo"
)

// treeComm builds a communicator with tree collectives enabled below
// threshold bytes.
func (r *rig) treeComm(t *testing.T, gpus []topo.GPUID, threshold int64) *Comm {
	t.Helper()
	info := spec.CommInfo{ID: 2, App: "tree"}
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
	info.Strategy = spec.Strategy{
		Channels:      []spec.ChannelSpec{{Order: order, Route: 0}},
		TreeThreshold: threshold,
	}
	comm, err := NewComm(r.s, r.cluster, r.engines, r.devices, info, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return comm
}

func TestTreeAllReduceCorrectness(t *testing.T) {
	r := newRig(t)
	gpus := r.fourHostGPUs()
	comm := r.treeComm(t, gpus, 1<<30) // everything below 1 GB uses the tree
	const count = 777
	bufs, want := backedBuffers(t, r, gpus, count, 11)
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

func TestTreeBroadcastAndReduceCorrectness(t *testing.T) {
	r := newRig(t)
	gpus := r.fourHostGPUs()
	comm := r.treeComm(t, gpus, 1<<30)
	const count = 256
	bufs, want := backedBuffers(t, r, gpus, count, 12)
	rootData := append([]float32(nil), bufs[0].Data()...)
	r.s.Go("driver", func(p *sim.Proc) {
		// Reduce to root 0.
		futs := make([]*opDone, len(gpus))
		for i, rn := range comm.Runners {
			futs[i] = newOpDone(r.s)
			rn.Enqueue(&OpRequest{
				Op: collective.Reduce, Root: 0, Count: count,
				SendBuf: bufs[i], RecvBuf: bufs[i], OnComplete: futs[i],
			})
		}
		for _, f := range futs {
			f.Wait(p)
		}
		for j := 0; j < count; j++ {
			if bufs[0].Data()[j] != want[j] {
				t.Fatalf("reduce elem %d = %g, want %g", j, bufs[0].Data()[j], want[j])
			}
		}
		// Broadcast root 0's (now reduced) buffer.
		futs2 := make([]*opDone, len(gpus))
		for i, rn := range comm.Runners {
			futs2[i] = newOpDone(r.s)
			rn.Enqueue(&OpRequest{
				Op: collective.Broadcast, Root: 0, Count: count,
				SendBuf: bufs[i], RecvBuf: bufs[i], OnComplete: futs2[i],
			})
		}
		for _, f := range futs2 {
			f.Wait(p)
		}
		for i, b := range bufs {
			for j := 0; j < count; j++ {
				if b.Data()[j] != want[j] {
					t.Fatalf("broadcast rank %d elem %d = %g, want %g", i, j, b.Data()[j], want[j])
				}
			}
		}
	})
	if err := r.s.Run(); err != nil {
		t.Fatal(err)
	}
	_ = rootData
}

func TestTreeFasterThanRingForSmallMessages(t *testing.T) {
	// 32 KB AllReduce over 4 hosts: 6 latency-bound rounds (tree) must
	// beat 6 ring steps of 2 slices... i.e. the tree's fewer serialized
	// hops win at small sizes, while the ring wins at 128 MB.
	run := func(threshold int64, count int64) time.Duration {
		r := newRig(t)
		gpus := r.fourHostGPUs()
		comm := r.treeComm(t, gpus, threshold)
		var bufs []*gpusim.Buffer
		for _, g := range gpus {
			b, _ := r.devices[g].Alloc(count * 4)
			bufs = append(bufs, b)
		}
		var dur time.Duration
		r.s.Go("driver", func(p *sim.Proc) {
			res := runAllReduce(p, comm, bufs, count)
			dur = res[0].Elapsed()
		})
		if err := r.s.Run(); err != nil {
			t.Fatal(err)
		}
		return dur
	}
	const small = 8 << 10 // 8K elements = 32 KB
	tree := run(1<<30, small)
	ring := run(0, small)
	if tree >= ring {
		t.Errorf("32KB: tree %v not faster than ring %v", tree, ring)
	}
	const large = 32 << 20 / 4 // 32 MB
	treeL := run(1<<30, large)
	ringL := run(0, large)
	if ringL >= treeL {
		t.Errorf("32MB: ring %v not faster than tree %v", ringL, treeL)
	}
}

func TestTreeThresholdRouting(t *testing.T) {
	// Ops above the threshold must take the ring path even when trees
	// are enabled (verified via correctness both ways and via rooted
	// fallback: a non-zero-root Broadcast cannot use the root-0 tree).
	r := newRig(t)
	gpus := r.fourHostGPUs()
	comm := r.treeComm(t, gpus, 1024) // tiny threshold
	const count = 2048                // 8 KB > threshold: ring path
	bufs, want := backedBuffers(t, r, gpus, count, 13)
	r.s.Go("driver", func(p *sim.Proc) {
		runAllReduce(p, comm, bufs, count)
		for i, b := range bufs {
			for j := 0; j < count; j++ {
				if b.Data()[j] != want[j] {
					t.Fatalf("rank %d elem %d wrong via ring fallback", i, j)
				}
			}
		}
		// Non-zero root broadcast falls back to the ring even below
		// threshold.
		small := int64(64)
		futs := make([]*opDone, len(gpus))
		for i, rn := range comm.Runners {
			futs[i] = newOpDone(r.s)
			rn.Enqueue(&OpRequest{
				Op: collective.Broadcast, Root: 2, Count: small,
				SendBuf: bufs[i], RecvBuf: bufs[i], OnComplete: futs[i],
			})
		}
		for _, f := range futs {
			f.Wait(p)
		}
		for i, b := range bufs {
			for j := int64(0); j < small; j++ {
				if b.Data()[j] != bufs[2].Data()[j] {
					t.Fatalf("rank %d rooted broadcast elem %d wrong", i, j)
				}
			}
		}
	})
	if err := r.s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestTreeSurvivesReconfiguration(t *testing.T) {
	r := newRig(t)
	gpus := r.fourHostGPUs()
	comm := r.treeComm(t, gpus, 1<<30)
	const count = 128
	bufs, _ := backedBuffers(t, r, gpus, count, 14)
	r.s.Go("driver", func(p *sim.Proc) {
		runAllReduce(p, comm, bufs, count)
		newStrat := comm.Strategy()
		newStrat.Channels[0].Order = []int{3, 1, 2, 0}
		latch := sim.NewLatch(len(comm.Runners))
		for _, rn := range comm.Runners {
			rn.Enqueue(&ReconfigRequest{Strategy: newStrat, Done: latch})
		}
		latch.Wait(p)
		bufs2, want2 := backedBuffers(t, r, gpus, count, 15)
		runAllReduce(p, comm, bufs2, count)
		for i, b := range bufs2 {
			for j := 0; j < count; j++ {
				if b.Data()[j] != want2[j] {
					t.Fatalf("post-reconfig tree rank %d elem %d wrong", i, j)
				}
			}
		}
	})
	if err := r.s.Run(); err != nil {
		t.Fatal(err)
	}
}
