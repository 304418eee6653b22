package mccsd

import (
	"testing"
	"time"

	"mccs/internal/gpusim"
	"mccs/internal/netsim"
	"mccs/internal/sim"
	"mccs/internal/spec"
	"mccs/internal/topo"
	"mccs/internal/trace"
)

// opPathRig is an 8-rank, 2-channel communicator whose tenants run rounds
// of one AllReduce and one AllGather round trip (issue → Wait) on demand,
// for counting what an issued operation costs.
type opPathRig struct {
	s      *sim.Scheduler
	ranks  int
	quota  int // rounds the tenants may run in all
	gate   sim.WaitQueue
	rounds []int // rounds each rank has run
	failed error
}

func newOpPathRig(t *testing.T, withStream bool) *opPathRig {
	cluster, err := topo.BuildClos(topo.TestbedConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New()
	// The always-on recorder allocates a chunk per 1 024 spans until its ring
	// is full. One chunk of capacity is allocated by the first span and never
	// again, which keeps the recorder's growth out of the counted windows.
	trace.Attach(s, trace.NewRecorder(trace.LevelOps, 1024))
	cfg := DefaultConfig()
	cfg.Strategy = func(cluster *topo.Cluster, info *spec.CommInfo) spec.Strategy {
		// Rank order finds one path between its first two hosts, hence one
		// channel; run two of it, so that the executor spawns and joins.
		st := RankOrderStrategy(cluster, info)
		st.Channels = append(st.Channels, st.Clone().Channels[0])
		return st
	}
	d := NewDeployment(s, cluster, netsim.NewFabric(s, cluster.Net), cfg)
	r := &opPathRig{s: s, ranks: len(cluster.GPUs), rounds: make([]int, len(cluster.GPUs))}
	const count = 256 // elements per rank: a 1 KB contribution, an 8 KB AllReduce
	for rank := range cluster.GPUs {
		gpu := topo.GPUID(rank)
		s.Go("tenant", func(p *sim.Proc) {
			f := d.Service(cluster.HostOfGPU(gpu)).Frontend("app")
			send, _ := f.MemAlloc(p, gpu, count*4, false)
			recv, _ := f.MemAlloc(p, gpu, count*4*int64(r.ranks), false)
			comm, err := f.CommInitRank(p, "job", r.ranks, rank, gpu)
			if err != nil {
				r.failed = err
				return
			}
			var stream *gpusim.Stream
			if withStream {
				stream = d.Device(gpu).NewStream("app")
			}
			for {
				for r.rounds[rank] < r.quota {
					h, err := comm.AllReduce(p, nil, recv, count*int64(r.ranks), stream)
					if err == nil {
						h.Wait(p)
						h, err = comm.AllGather(p, send, recv, count, stream)
					}
					if err != nil {
						r.failed = err
						return
					}
					h.Wait(p)
					r.rounds[rank]++
				}
				r.gate.Wait(p)
			}
		}).Daemon()
	}
	r.run(t, 1)
	if nch := len(d.View()[0].Strategy.Channels); r.ranks != 8 || nch != 2 {
		t.Fatalf("rig is %d ranks on %d channels, want 8 on 2", r.ranks, nch)
	}
	return r
}

// run lets every tenant run k more rounds and returns once they have.
func (r *opPathRig) run(t *testing.T, k int) {
	r.quota += k
	r.gate.WakeAll(r.s)
	if err := r.s.RunUntil(r.s.Now().Add(time.Duration(k) * 10 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	for rank, n := range r.rounds {
		if n != r.quota || r.failed != nil {
			t.Fatalf("rank %d ran %d of %d rounds (%v)", rank, n, r.quota, r.failed)
		}
	}
}

// TestOpPathAllocatesOncePerRankOp pins what an operation costs the service
// stack, shim call to completion: one heap object per rank — the OpHandle,
// which carries the request, the completion record, the future and both
// latency hops — and nothing for the executor, whose latch, channel
// processes and programs are the rank's own, reused from op to op. Both ops
// run as two ring programs per rank, spawned and joined on the rank's latch,
// the AllGather's 7 steps over the AllReduce's 14 and back.
//
// With an application stream the stream's own bookkeeping comes on top, per
// op: the record instance of Stream.Record, the callback list and closure of
// Stream.WaitEvent, and the stream's completion callbacks (method values).
// They are pinned as what they are today, not as a target.
func TestOpPathAllocatesOncePerRankOp(t *testing.T) {
	const opsPerRound = 2
	for _, tc := range []struct {
		name       string
		withStream bool
		perRankOp  int
	}{
		{"no stream", false, 1},
		{"stream", true, 1 + 5},
	} {
		r := newOpPathRig(t, tc.withStream)
		r.run(t, 20) // steady state: arenas, rings, queues and tables sized
		// AllocsPerRun divides in integers, which keeps a stray object of
		// the runtime's out of a count that is otherwise exact (seen once
		// under the race detector: 2 404 over a window of 2 400).
		got := testing.AllocsPerRun(50, func() { r.run(t, 1) })
		if want := float64(r.ranks * opsPerRound * tc.perRankOp); got != want {
			t.Errorf("%s: %v allocations per round of %d rank-ops, want %v (%d per rank-op)",
				tc.name, got, r.ranks*opsPerRound, want, tc.perRankOp)
		}
		r.s.Shutdown()
	}
}
