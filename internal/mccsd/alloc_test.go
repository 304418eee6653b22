package mccsd

import (
	"fmt"
	"reflect"
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
// of one AllReduce round trip (issue → Wait), and with allGather one
// AllGather after it, on demand, for counting what an issued operation
// costs.
type opPathRig struct {
	s      *sim.Scheduler
	ranks  int
	quota  int // rounds the tenants may run in all
	gate   sim.WaitQueue
	rounds []int // rounds each rank has run
	failed error
}

func newOpPathRig(t *testing.T, withStream, allGather bool) *opPathRig {
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
					if err == nil && allGather {
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
// They are pinned as what they are today, not as a target. Counting the
// fired events (eventMix, an event observer) adds nothing.
func TestOpPathAllocatesOncePerRankOp(t *testing.T) {
	const opsPerRound = 2
	for _, tc := range []struct {
		name       string
		withStream bool
		counted    bool
		perRankOp  int
	}{
		{"no stream", false, false, 1},
		{"no stream, events counted", false, true, 1},
		{"stream", true, false, 1 + 5},
	} {
		r := newOpPathRig(t, tc.withStream, true)
		if tc.counted {
			r.s.SetEventObserver((&eventMix{}).observe)
		}
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

// eventMix counts fired events by kind and call events by handler type, as
// an event observer (sim.Scheduler.SetEventObserver). The handler types of a
// run are a handful, so a slice searched linearly does, and it grows only
// when a type is first seen: counting allocates nothing in steady state.
type eventMix struct {
	kinds [sim.EventCall + 1]uint64
	calls []handlerCount
}

type handlerCount struct {
	typ reflect.Type
	n   uint64
}

func (m *eventMix) observe(_ sim.Time, _ uint64, kind sim.EventKind, h sim.Handler) {
	m.kinds[kind]++
	if kind != sim.EventCall {
		return
	}
	typ := reflect.TypeOf(h)
	for i := range m.calls {
		if m.calls[i].typ == typ {
			m.calls[i].n++
			return
		}
	}
	m.calls = append(m.calls, handlerCount{typ, 1})
}

// String prints the mix as "dispatch=N wake=N call=N fn=N" and then each
// handler type's calls in order of first appearance.
func (m *eventMix) String() string {
	out := fmt.Sprintf("dispatch=%d wake=%d call=%d fn=%d", m.kinds[sim.EventDispatch],
		m.kinds[sim.EventWake], m.kinds[sim.EventCall], m.kinds[sim.EventFn])
	for _, c := range m.calls {
		out += fmt.Sprintf(" %v=%d", c.typ, c.n)
	}
	return out
}

// TestOpPathEventMix pins the events one 8-rank, 8 KB, two-channel testbed
// AllReduce fires, by kind and by handler: which hop of the op's path the
// event loop spends its events on. The op sends 224 messages (2 channels × 8
// ranks × 14 steps), half of them over an intra-host connection, and every
// message costs one delivery call and one copy/reduce sleep (a wake; the
// other 16 wakes end the kernel launches of 8 ranks × 2 channels). Eight of
// the 520 dispatches resume the tenants, which the rig parks between rounds,
// and the 16 OpHandle calls are the command and completion hops of 8
// rank-ops. The counts are exact and the same for every op; they move only
// with a change that means to move the schedule.
func TestOpPathEventMix(t *testing.T) {
	const want = "dispatch=520 wake=240 call=352 fn=28" +
		" *mccsd.OpHandle=16 *transport.connIntraDone=112 *transport.connDeliver=224"
	r := newOpPathRig(t, false, false)
	defer r.s.Shutdown()
	r.run(t, 20)
	for op := 0; op < 5; op++ {
		mix := &eventMix{}
		r.s.SetEventObserver(mix.observe)
		r.run(t, 1)
		if got := mix.String(); got != want {
			t.Fatalf("op %d fired %s, want %s", op, got, want)
		}
	}
}
