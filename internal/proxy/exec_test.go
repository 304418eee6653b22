package proxy

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"mccs/internal/collective"
	"mccs/internal/gpusim"
	"mccs/internal/sim"
	"mccs/internal/spec"
	"mccs/internal/topo"
)

// TestInterpreterAgainstOracle runs a sequence of differently-sized
// collectives back to back on one communicator, with slices small enough
// that every step pipelines, and checks each result against the
// schedule-free oracle: for one channel (the program runs inline in the
// execution pipeline) and two (spawned stackless processes), under the ring,
// tree and halving-doubling schedules. Back to back matters: the message
// snapshots of one op are recycled into the next, at other sizes.
func TestInterpreterAgainstOracle(t *testing.T) {
	type opCase struct {
		op    collective.Op
		root  int
		count int64
	}
	ops := []opCase{
		{collective.AllReduce, 0, 1000},
		{collective.AllGather, 0, 37},
		{collective.ReduceScatter, 0, 531},
		{collective.Broadcast, 2, 2048},
		{collective.Reduce, 1, 777},
		{collective.AllReduce, 0, 4099},
		{collective.AllReduce, 0, 5},
	}
	for _, tc := range []struct {
		name     string
		ranks    int
		channels int
		algo     spec.Algorithm
		tree     int64
	}{
		{"ring/1ch", 8, 1, spec.AlgoRing, 0},
		{"ring/2ch", 8, 2, spec.AlgoRing, 0},
		{"tree", 8, 1, spec.AlgoRing, 1 << 30},
		{"hd/1ch", 8, 1, spec.AlgoHD, 0},
		{"hd/2ch/n6", 6, 2, spec.AlgoHD, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t)
			gpus := r.allGPUs()[:tc.ranks]
			info := spec.CommInfo{ID: 9, App: "oracle"}
			order := make([]int, tc.ranks)
			for i, g := range gpus {
				order[i] = i
				info.Ranks = append(info.Ranks, spec.RankInfo{
					Rank: i, GPU: g, Host: r.cluster.HostOfGPU(g), NIC: r.cluster.NICOfGPU(g),
				})
			}
			for ci := 0; ci < tc.channels; ci++ {
				info.Strategy.Channels = append(info.Strategy.Channels, spec.ChannelSpec{Order: order, Route: ci})
			}
			info.Strategy.Algorithm, info.Strategy.TreeThreshold = tc.algo, tc.tree
			cfg := DefaultConfig()
			cfg.MinSliceBytes = 64
			comm, err := NewComm(r.s, r.cluster, r.engines, r.devices, info, cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			r.s.Go("driver", func(p *sim.Proc) {
				for oi, oc := range ops {
					if err := runAgainstOracle(p, r, comm, gpus, oc.op, oc.root, oc.count, oi); err != nil {
						t.Errorf("op %d (%v count %d): %v", oi, oc.op, oc.count, err)
						return
					}
				}
			})
			if err := r.s.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestExecutorStateIsReusedAcrossOpShapes runs, on one communicator, what
// the executor keeps from op to op — the join latch, a process and a program
// buffer per channel, the per-channel peer tables — through every change of
// shape: two ring channels (spawned processes, joined on the latch) next to
// the single tree program (run inline on channel 0's interpreter, over the
// steps the ring left there), a point-to-point transfer on that same
// interpreter, long programs after short ones and back, and reconfigurations
// to one halving-doubling channel and back to two rings, after which channel
// 1's process restarts having sat out a generation. Every result is held to
// the oracle, and the processes are the ones first spawned.
func TestExecutorStateIsReusedAcrossOpShapes(t *testing.T) {
	r := newRig(t)
	gpus := r.allGPUs()
	n := len(gpus)
	info := spec.CommInfo{ID: 9, App: "oracle"}
	order := make([]int, n)
	for i, g := range gpus {
		order[i] = i
		info.Ranks = append(info.Ranks, spec.RankInfo{
			Rank: i, GPU: g, Host: r.cluster.HostOfGPU(g), NIC: r.cluster.NICOfGPU(g),
		})
	}
	twoRings := spec.Strategy{
		Channels:      []spec.ChannelSpec{{Order: order, Route: 0}, {Order: order, Route: 1}},
		TreeThreshold: 4096, // AllReduce, and Broadcast/Reduce at root 0, below 1 024 elements
	}
	oneHD := spec.Strategy{Channels: twoRings.Channels[:1], Algorithm: spec.AlgoHD}
	info.Strategy = twoRings
	cfg := DefaultConfig()
	cfg.MinSliceBytes = 64
	comm, err := NewComm(r.s, r.cluster, r.engines, r.devices, info, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	reconfigure := func(p *sim.Proc, st spec.Strategy) {
		done := sim.NewLatch(n)
		for _, rn := range comm.Runners {
			rn.Enqueue(&ReconfigRequest{Strategy: st, Done: done})
		}
		done.Wait(p)
	}
	p2p := func(p *sim.Proc, from, to int, count int64, salt float32) error {
		src, _ := r.devices[gpus[from]].AllocBacked(count * 4)
		dst, _ := r.devices[gpus[to]].AllocBacked(count * 4)
		for j := range src.Data() {
			src.Data()[j] = salt + float32(j%11)
		}
		done := newOpDone(r.s)
		comm.Runners[from].Enqueue(&OpRequest{P2P: P2PSend, Peer: to, Count: count, RecvBuf: src})
		comm.Runners[to].Enqueue(&OpRequest{P2P: P2PRecv, Peer: from, Count: count, RecvBuf: dst, OnComplete: done})
		done.Wait(p)
		for j, v := range dst.Data() {
			if v != src.Data()[j] {
				return fmt.Errorf("p2p %d->%d elem %d = %g, want %g", from, to, j, v, src.Data()[j])
			}
		}
		return nil
	}
	type shape struct {
		op    collective.Op
		root  int
		count int64
	}
	mixed := []shape{
		{collective.AllReduce, 0, 4099},     // ring, 2 channels: 14 steps each
		{collective.AllReduce, 0, 100},      // tree, inline: 6 steps over channel 0's 14
		{collective.AllGather, 0, 37},       // ring, 2 channels: 7 steps
		{collective.Broadcast, 0, 512},      // tree, inline: 3 steps
		{collective.Broadcast, 3, 512},      // ring chain (root off the tree), 2 channels
		{collective.AllReduce, 0, 5},        // tree, fewer elements than ranks
		{collective.ReduceScatter, 0, 2050}, // ring, 2 channels
		{collective.Reduce, 0, 777},         // tree, inline
		{collective.AllReduce, 0, 1 << 14},  // ring again, long after short
	}
	var procs []*sim.Proc
	r.s.Go("driver", func(p *sim.Proc) {
		run := func(phase string, shapes []shape) bool {
			for oi, sh := range shapes {
				if err := runAgainstOracle(p, r, comm, gpus, sh.op, sh.root, sh.count, oi); err != nil {
					t.Errorf("%s op %d (%v root %d count %d): %v", phase, oi, sh.op, sh.root, sh.count, err)
					return false
				}
				if oi%3 == 1 { // between the shapes, the point-to-point program on channel 0
					if err := p2p(p, oi%n, (oi+3)%n, 300+int64(oi), float32(oi)); err != nil {
						t.Errorf("%s after op %d: %v", phase, oi, err)
						return false
					}
				}
			}
			return true
		}
		if !run("two rings", mixed) {
			return
		}
		for _, rn := range comm.Runners {
			for _, c := range rn.ex.chans {
				procs = append(procs, c.proc)
			}
		}
		reconfigure(p, oneHD)
		if !run("one hd channel", []shape{{collective.AllReduce, 0, 4099}, {collective.AllGather, 0, 64}, {collective.AllReduce, 0, 8}}) {
			return
		}
		reconfigure(p, twoRings)
		run("two rings again", mixed)
	})
	if err := r.s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(procs) != 2*n {
		t.Fatalf("%d channel interpreters after the first phase, want %d", len(procs), 2*n)
	}
	i := 0
	for rank, rn := range comm.Runners {
		if !rn.Quiescent() {
			t.Errorf("rank %d not quiescent", rank)
		}
		for ch, c := range rn.ex.chans {
			if procs[i] == nil || c.proc != procs[i] {
				t.Errorf("rank %d channel %d: process %p after the run, %p after the first phase: not reused", rank, ch, c.proc, procs[i])
			}
			i++
		}
	}
	r.s.Shutdown()
}

func runAgainstOracle(p *sim.Proc, r *rig, comm *Comm, gpus []topo.GPUID, op collective.Op, root int, count int64, salt int) error {
	n := len(gpus)
	inputs := make([][]float32, n)
	for rank := range inputs {
		inputs[rank] = make([]float32, count)
		for j := range inputs[rank] {
			inputs[rank][j] = float32((rank + 1 + salt) * (j%7 + 1) % 13)
		}
	}
	want, err := collective.Oracle(op, root, inputs)
	if err != nil {
		return err
	}
	outElems := count
	if op == collective.AllGather {
		outElems *= int64(n)
	}
	outs := make([]*gpusim.Buffer, n)
	futs := make([]*opDone, n)
	for rank, g := range gpus {
		out, err := r.devices[g].AllocBacked(outElems * 4)
		if err != nil {
			return err
		}
		in := out
		if op == collective.AllGather {
			if in, err = r.devices[g].AllocBacked(count * 4); err != nil {
				return err
			}
		}
		copy(in.Data(), inputs[rank])
		outs[rank], futs[rank] = out, newOpDone(r.s)
		comm.Runners[rank].Enqueue(&OpRequest{
			Op: op, Root: root, Count: count, SendBuf: in, RecvBuf: out, OnComplete: futs[rank],
		})
	}
	for _, f := range futs {
		f.Wait(p)
	}
	starts, lens := collective.Regions(count, n)
	for rank := range outs {
		lo, hi := int64(0), int64(len(want[rank]))
		switch {
		case op == collective.Reduce && rank != root:
			continue // unspecified off the root
		case op == collective.ReduceScatter:
			lo, hi = starts[rank], starts[rank]+lens[rank] // only the owned region is specified
		}
		got := outs[rank].Data()
		for j := lo; j < hi; j++ {
			if got[j] != want[rank][j] {
				return fmt.Errorf("rank %d elem %d = %g, want %g", rank, j, got[j], want[rank][j])
			}
		}
	}
	return nil
}

// TestDatapathOwnsNoGoroutine pins the process model: a communicator of n
// ranks costs n goroutines — the control loops — however many channels it
// runs and however many operations it executes; the execution pipelines and
// the channel programs are step functions. A drained run leaves every runner
// quiescent.
func TestDatapathOwnsNoGoroutine(t *testing.T) {
	// settle gives goroutines that have finished their work time to exit:
	// it returns the count once it is down to want, or has stopped falling.
	settle := func(want int) int {
		for n := runtime.NumGoroutine(); n > want; {
			time.Sleep(10 * time.Millisecond)
			m := runtime.NumGoroutine()
			if m >= n {
				return m
			}
			n = m
		}
		return runtime.NumGoroutine()
	}
	r := newRig(t)
	gpus := r.allGPUs()
	n := len(gpus)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	base := settle(0)
	comm := r.commOn(t, gpus, [][]int{order, order})
	if got := runtime.NumGoroutine() - base; got != n {
		t.Fatalf("NewComm on %d ranks started %d goroutines, want %d", n, got, n)
	}
	const count = 1 << 16
	bufs, want := backedBuffers(t, r, gpus, count, 5)
	r.s.Go("driver", func(p *sim.Proc) {
		runAllReduce(p, comm, bufs, count)
		// Still the control loops and nothing else, mid-run (plus this driver).
		if got := runtime.NumGoroutine() - base; got != n+1 {
			t.Errorf("%d goroutines after a 2-channel AllReduce, want %d", got, n+1)
		}
		recv, _ := r.devices[gpus[1]].AllocBacked(count * 4)
		done := newOpDone(r.s)
		comm.Runners[0].Enqueue(&OpRequest{P2P: P2PSend, Peer: 1, Count: count, RecvBuf: bufs[0]})
		comm.Runners[1].Enqueue(&OpRequest{P2P: P2PRecv, Peer: 0, Count: count, RecvBuf: recv, OnComplete: done})
		done.Wait(p)
		if got := recv.Data()[count-1]; got != want[count-1] {
			t.Errorf("received %g, want %g", got, want[count-1])
		}
	})
	if err := r.s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := settle(base+n) - base; got != n {
		t.Errorf("%d goroutines after the run drained, want %d", got, n)
	}
	for rank, rn := range comm.Runners {
		if !rn.Quiescent() {
			t.Errorf("rank %d not quiescent", rank)
		}
	}
	r.s.Shutdown()
	if got := settle(base); got != base {
		t.Errorf("%d goroutines left after Shutdown, started with %d", got, base)
	}
}

// TestExecutingCountsBegunCollectives pins what Executing reports: a
// collective counts once it is past its app-event wait and until it
// completes. Ranks 0–2 begin seq 1 and wait in the ring for rank 3, whose
// copy of the op waits on an app event that fires only later. Had it never
// fired, the run would drain in this state: the deadlock the chaos harness's
// generation ledger reads from Executing, since no rank completed the op.
func TestExecutingCountsBegunCollectives(t *testing.T) {
	r := newRig(t)
	gpus := r.fourHostGPUs()
	comm := r.commOn(t, gpus, [][]int{{0, 1, 2, 3}})
	const count = 1 << 10
	bufs, _ := backedBuffers(t, r, gpus, count, 1)
	app := &gpusim.RecordInstance{}
	ev := gpusim.NewEvent()
	ev.ManualRecord(app)
	executing := func(when string, want ...bool) {
		t.Helper()
		for rank, rn := range comm.Runners {
			seq, ok := rn.Executing()
			if ok != want[rank] || ok && seq != 1 {
				t.Errorf("%s: rank %d Executing() = (%d, %v), want (1, %v)", when, rank, seq, ok, want[rank])
			}
		}
	}
	executing("before any op", false, false, false, false)
	for i, rn := range comm.Runners {
		req := &OpRequest{Op: collective.AllReduce, Count: count, SendBuf: bufs[i], RecvBuf: bufs[i]}
		if i == 3 {
			req.AppEvent = ev.Snapshot()
		}
		rn.Enqueue(req)
	}
	r.s.At(sim.Time(10*time.Millisecond), func() {
		executing("rank 3 waiting on its app event", true, true, true, false)
		app.Fire(r.s)
	})
	if err := r.s.Run(); err != nil {
		t.Fatal(err)
	}
	executing("after the op completed", false, false, false, false)
	for rank, rn := range comm.Runners {
		if h := rn.History(); len(h) != 1 || h[0].Seq != 1 {
			t.Errorf("rank %d history %+v, want seq 1 completed", rank, h)
		}
	}
	r.s.Shutdown()
}
