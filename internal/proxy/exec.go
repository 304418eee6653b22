package proxy

// This file is the proxy's datapath: execute runs one collective for one
// rank, and chanRun — the only place collectives touch connections —
// interprets the rank's schedule program for one channel.
//
// The interpreter is a step function (sim.Scheduler.GoStep), not blocking
// code: a 128 MB AllReduce moves ~1 800 messages, every one of them a
// receive wait plus a copy/reduce sleep, and as blocking code each costs
// two goroutine switches — measured at nearly two thirds of the simulator's
// CPU (DESIGN.md §10.2). It parks with the Park forms of the calls blocking
// code would make, in the same order, so the simulated schedule is the one
// blocking code would produce.

import (
	"fmt"
	"math/bits"

	"mccs/internal/collective"
	"mccs/internal/sim"
	"mccs/internal/trace"
	"mccs/internal/transport"
)

// execute runs one collective to completion for this rank. Execution is
// lock-step with the peers through the data dependencies of the
// schedule: each step's receive blocks until the peer's send completes.
func (r *Runner) execute(p *sim.Proc, op *OpRequest) {
	start := p.Now()
	op.AppEvent.WaitHost(p)
	if op.Count <= 0 {
		panic(fmt.Sprintf("proxy: collective with count %d", op.Count))
	}
	n := r.comm.Info.NumRanks()
	cs := r.comm.gens[r.gen]
	if obs := r.comm.cfg.ExecObserver; obs != nil {
		obs(r.comm.Info.ID, r.rank, r.gen, op.seq)
	}

	r.initialCopy(p, op, n)

	outBytes := op.Count * 4
	if op.Op == collective.AllGather {
		outBytes *= int64(n)
	}

	// A single-rank communicator has no schedule: the initial copy is
	// the whole op.
	if n > 1 {
		algo := collective.Select(&cs.strategy, op.Op, n, op.Root, outBytes)
		if nch := collective.Channels(algo, cs.rings); nch == 1 {
			// One channel runs on the runner's own process: nothing is
			// spawned, the step function stands in for p until it is done.
			p.Host((&chanRun{r: r, op: op, cs: cs, algo: algo}).step)
		} else {
			latch := sim.NewLatch(nch)
			for ch := 0; ch < nch; ch++ {
				run := &chanRun{r: r, op: op, cs: cs, algo: algo, ch: ch, done: latch}
				r.comm.s.GoStep(r.chanName(ch), run.step)
			}
			latch.Wait(p)
		}
	}

	res := OpResult{Seq: op.seq, Op: op.Op, Start: start, End: p.Now(), Bytes: outBytes}
	r.comm.telOps.Inc()
	if op.CompleteFire != nil {
		op.CompleteFire()
	}
	// The op-lifecycle span doubles as the management-plane record: the
	// Deployment.CommTrace API and the TS policy read it back out of the
	// recorder. Span is a value struct, so this emits without allocating
	// — and is a branch-and-return when recording is off.
	r.comm.rec.Emit(trace.Span{
		Kind: trace.KindOp, Op: int32(op.Op),
		Start: start, End: p.Now(),
		Host: int32(r.comm.Info.Ranks[r.rank].Host),
		GPU:  int32(r.comm.Info.Ranks[r.rank].GPU),
		Comm: int32(r.comm.Info.ID), Rank: int32(r.rank),
		Peer: -1, Channel: -1, Step: -1,
		Gen: int32(r.gen), Seq: op.seq, Bytes: outBytes,
		Flow: -1, Src: -1, Dst: -1,
	})
	if op.Done != nil {
		op.Done.Set(r.comm.s, res)
	}
}

// initialCopy stages input data into the working (output) buffer:
// out-of-place collectives copy the whole input; AllGather copies the
// rank's contribution into its own output span.
func (r *Runner) initialCopy(p *sim.Proc, op *OpRequest, n int) {
	switch op.Op {
	case collective.AllGather:
		if op.SendBuf == nil {
			panic("proxy: AllGather without send buffer")
		}
		p.Sleep(r.dev.TransferTime(op.Count*4, 1))
		if op.SendBuf.Backed() && op.RecvBuf.Backed() {
			dst := op.RecvBuf.Data()[int64(r.rank)*op.Count : (int64(r.rank)+1)*op.Count]
			copy(dst, op.SendBuf.Data()[:op.Count])
		}
	default:
		if op.SendBuf != nil && op.SendBuf != op.RecvBuf {
			p.Sleep(r.dev.TransferTime(op.Count*4, 1))
			if op.SendBuf.Backed() && op.RecvBuf.Backed() {
				copy(op.RecvBuf.Data()[:op.Count], op.SendBuf.Data()[:op.Count])
			}
		}
	}
}

// sliceCount returns how many pipeline slices a chunk of bytes is cut
// into under the config's slice model.
func sliceCount(cfg Config, bytes int64) int {
	if bytes <= 0 {
		return 0
	}
	minSlice := cfg.MinSliceBytes
	if minSlice <= 0 {
		minSlice = 512 << 10
	}
	maxSlices := cfg.MaxSlices
	if maxSlices <= 0 {
		maxSlices = 8
	}
	k := int((bytes + minSlice - 1) / minSlice)
	if k < 1 {
		k = 1
	}
	if k > maxSlices {
		k = maxSlices
	}
	return k
}

// chanName returns the process name of this rank's channel ch.
func (r *Runner) chanName(ch int) string {
	for len(r.chanNames) <= ch {
		r.chanNames = append(r.chanNames,
			fmt.Sprintf("proxy:c%d:r%d:ch%d", r.comm.Info.ID, r.rank, len(r.chanNames)))
	}
	return r.chanNames[ch]
}

// chanRun interprets this rank's program for one channel of one collective:
// a fused kernel launch, then for every round the rank takes part in, the
// round's send and its receive with the receive-side GPU work.
//
// A pipelined program's step is cut into slices that stream independently
// (NCCL's FIFO-slot pipelining): a rank forwards slice k of a step as soon
// as it has received slice k of the previous step, so a transient phase
// skew between ranks costs one slice, not one chunk, of pipeline stall.
// Otherwise a step is one message. Sends are asynchronous and receives
// wait, so paired exchanges within a round cannot deadlock; per-connection
// FIFO order keeps rounds matched without explicit tags.
//
// It is a state machine because it runs as a step function: everything
// that would live on a blocked goroutine's stack lives here, and at is
// where step picks up when the process is next dispatched.
type chanRun struct {
	r    *Runner
	op   *OpRequest
	cs   *connSet
	algo collective.Algo
	ch   int
	done *sim.Latch // counted down at the end; nil when hosted on the runner's process

	at   resumePoint
	prog collective.Program

	// The step being interpreted.
	si                 int // index into prog.Steps
	tag                trace.FlowTag
	stepStart          sim.Time
	busy               sim.Duration
	sendConn, recvConn *transport.Conn
	ks, kr, k          int // send slices, receive slices, current slice

	// The receive in progress.
	d        transport.Delivery
	off, l   int64
	copyTime sim.Duration
}

// resumePoint says where chanRun.step continues. The interpreter waits in
// three places — atStep, atRecv and atReceived are where it resumes after
// them; the other two values only sequence the loop.
type resumePoint uint8

const (
	atLaunch   resumePoint = iota // first dispatch: lower the program, launch the kernel
	atStep                        // (after the kernel-launch sleep) begin step si
	atSlice                       // send slice k, then see whether one is due in
	atRecv                        // (after a receive park) take slice k off the connection
	atReceived                    // (after the copy/reduce sleep) land slice k
)

// step runs the program until it must wait — for the kernel launch, for
// a delivery, or for the GPU to land one — and reports whether the
// program is finished.
func (c *chanRun) step(p *sim.Proc) bool {
	for {
		switch c.at {
		case atLaunch:
			c.prog = collective.Lower(c.algo, c.op.Op, c.cs.rings, c.r.rank, c.ch, c.op.Root, c.op.Count)
			// Fused communication kernel launch, once per channel.
			c.at = atStep
			p.ParkSleep(c.r.comm.cfg.KernelLaunch)
			return false
		case atStep:
			if !c.beginStep(p) {
				if c.done != nil {
					c.done.Done(c.r.comm.s)
				}
				return true
			}
			c.at = atSlice
		case atSlice:
			if c.k >= c.ks && c.k >= c.kr {
				c.endStep(p)
				c.si++
				c.at = atStep
				continue
			}
			c.sendSlice()
			st := &c.prog.Steps[c.si]
			c.l = 0
			if c.k < c.kr {
				c.off, c.l = collective.Part(st.RecvLen, c.kr, c.k)
				c.off += st.RecvOff
			}
			if c.l > 0 {
				c.at = atRecv
			} else {
				c.k++
			}
		case atRecv:
			d, ok := c.recvConn.TryRecv()
			if !ok {
				c.recvConn.ParkRecv(p)
				return false
			}
			passes := 1.0
			if c.prog.Steps[c.si].RecvReduce {
				passes = 2.0
			}
			c.d = d
			c.copyTime = c.r.dev.TransferTime(c.l*4, passes)
			c.at = atReceived
			p.ParkSleep(c.copyTime)
			return false
		case atReceived:
			c.land()
			c.k++
			c.at = atSlice
		}
	}
}

// beginStep moves to the next step the rank takes part in, starting at
// c.si, and sets up its connections, slicing and trace tag. It reports
// false when the program has no more steps.
func (c *chanRun) beginStep(p *sim.Proc) bool {
	r, op := c.r, c.op
	// Peers in an idle round exchange without us; nothing blocks our
	// round counter because each transfer pairs sender and receiver
	// explicitly.
	for c.si < len(c.prog.Steps) && c.prog.Steps[c.si].Idle() {
		c.si++
	}
	if c.si == len(c.prog.Steps) {
		return false
	}
	st := &c.prog.Steps[c.si]
	r.comm.telSteps.Inc()
	// The tag rides every message of this step onto its fabric flow,
	// joining network transfers back to (comm, seq, step) in the trace.
	c.tag = trace.FlowTag{
		Comm: int32(r.comm.Info.ID), From: int32(r.rank), To: int32(st.SendPeer),
		Channel: int32(c.ch), Gen: int32(r.gen), Step: int32(c.si),
		Op: int32(op.Op), Seq: op.seq,
	}
	c.stepStart, c.busy = p.Now(), 0
	c.sendConn, c.recvConn = nil, nil
	if st.SendPeer >= 0 {
		c.sendConn = c.cs.conns[collective.Edge{Algo: c.algo, Channel: c.ch, From: r.rank, To: st.SendPeer}]
	}
	if st.RecvPeer >= 0 {
		c.recvConn = c.cs.conns[collective.Edge{Algo: c.algo, Channel: c.ch, From: st.RecvPeer, To: r.rank}]
	}
	c.ks, c.kr, c.k = 1, 1, 0
	if c.prog.Pipelined {
		c.ks, c.kr = sliceCount(r.comm.cfg, st.SendLen*4), sliceCount(r.comm.cfg, st.RecvLen*4)
	}
	return true
}

// sendSlice sends slice k of the step, if the step has one.
func (c *chanRun) sendSlice() {
	if c.k >= c.ks {
		return
	}
	st := &c.prog.Steps[c.si]
	off, l := collective.Part(st.SendLen, c.ks, c.k)
	if l <= 0 {
		return
	}
	off += st.SendOff
	var data []float32
	if buf := c.op.RecvBuf; buf != nil && buf.Backed() {
		data = c.r.comm.snaps.get(l)
		copy(data, buf.Data()[off:off+l])
	}
	c.sendConn.SendTagged(l*4, data, nil, c.tag)
}

// land accounts the copy/reduce of the slice just received and, for
// backed buffers, applies its data.
func (c *chanRun) land() {
	c.busy += c.copyTime
	d, buf := c.d, c.op.RecvBuf
	c.d = transport.Delivery{}
	if d.Data == nil || buf == nil || !buf.Backed() {
		return
	}
	dst := buf.Data()[c.off : c.off+c.l]
	if int64(len(d.Data)) != c.l {
		panic(fmt.Sprintf("proxy: slice size mismatch: got %d elems, want %d", len(d.Data), c.l))
	}
	if c.prog.Steps[c.si].RecvReduce {
		for i := range dst {
			dst[i] += d.Data[i]
		}
	} else {
		copy(dst, d.Data)
	}
	c.r.comm.snaps.put(d.Data)
}

// snapPool recycles the data snapshots that ride the messages of
// backed-buffer collectives: the sending interpreter takes one, the
// receiving interpreter — the snapshot's only reader — returns it once the
// data has landed. Snapshots are nearly all of the bytes a small backed
// collective allocates, and at step-function speed the collector no
// longer keeps up with them (the heap overshoots its goal while marking).
// Buffers are binned by power-of-two capacity.
type snapPool struct {
	free [48][][]float32
}

func (sp *snapPool) get(n int64) []float32 {
	class := bits.Len64(uint64(n - 1))
	if k := len(sp.free[class]); k > 0 {
		b := sp.free[class][k-1]
		sp.free[class] = sp.free[class][:k-1]
		return b[:n]
	}
	return make([]float32, n, 1<<class)
}

func (sp *snapPool) put(b []float32) {
	class := bits.Len64(uint64(cap(b) - 1))
	sp.free[class] = append(sp.free[class], b)
}

// endStep records the finished step's span.
func (c *chanRun) endStep(p *sim.Proc) {
	r, op := c.r, c.op
	rec := r.comm.rec
	if !rec.Enabled(trace.KindStep) {
		return
	}
	st := &c.prog.Steps[c.si]
	peer := st.SendPeer
	if peer < 0 {
		peer = st.RecvPeer
	}
	rec.Emit(trace.Span{
		Kind: trace.KindStep, Op: int32(op.Op),
		Start: c.stepStart, End: p.Now(), Busy: c.busy,
		Host: int32(r.comm.Info.Ranks[r.rank].Host),
		GPU:  int32(r.comm.Info.Ranks[r.rank].GPU),
		Comm: int32(r.comm.Info.ID), Rank: int32(r.rank), Peer: int32(peer),
		Channel: int32(c.ch), Gen: int32(r.gen), Step: int32(c.si),
		Seq: op.seq, Bytes: (st.SendLen + st.RecvLen) * 4,
		Flow: -1, Src: -1, Dst: -1,
	})
}
