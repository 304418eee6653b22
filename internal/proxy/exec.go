package proxy

// This file is the proxy's datapath, and all of it: execStep runs the
// operations a rank has launched, in order — collectives and point-to-point
// transfers alike — and chanRun, the only place an operation touches
// connections, interprets one schedule program on one channel.
//
// Both are step functions (sim.Scheduler.GoStep), not blocking code: a
// 128 MB AllReduce moves ~1 800 messages, every one of them a receive wait
// plus a copy/reduce sleep, and as blocking code each wait costs two
// goroutine switches — measured at nearly two thirds of the simulator's CPU
// (DESIGN.md §10.2); a small op pays the same per pipeline stage. They park
// with the Park forms of the calls blocking code would make, in the same
// order, so the simulated schedule is the one blocking code would produce.

import (
	"fmt"
	"math/bits"

	"mccs/internal/collective"
	"mccs/internal/freelist"
	"mccs/internal/gpusim"
	"mccs/internal/sim"
	"mccs/internal/telemetry"
	"mccs/internal/trace"
	"mccs/internal/transport"
)

// execState is one rank's execution pipeline: where execStep resumes and the
// operation in progress. A rank executes one operation at a time, so the
// interpreters of its channels live here too, reused from op to op.
type execState struct {
	at    execStage
	op    *OpRequest
	start sim.Time
	bytes int64      // output-buffer size (the AlgBW numerator)
	nch   int        // channel programs of the op: one runs inline, several as processes
	join  sim.Latch  // opens when the op's several channel programs are done
	chans []*chanRun // per-channel interpreters, built on first use
}

// execStage says where execStep continues.
type execStage uint8

const (
	exPop      execStage = iota // take the next launched op, or park until there is one
	exBegin                     // (after the app-event park) stage the op's input
	exCopied                    // (after the initial-copy sleep) land the copy
	exPrograms                  // lower the op and start its channel programs
	exRun                       // run the op's one program, or wait for its several
	exComplete                  // report the op and go round
)

// execStep executes launched operations in order, each to completion.
// Execution is lock-step with the peers through the data dependencies of
// the schedule: each step's receive waits until the peer's send completes.
func (r *Runner) execStep(p *sim.Proc) bool {
	x := &r.ex
	for {
		switch op := x.op; x.at {
		case exPop:
			var ok bool
			if x.op, ok = r.execQ.TryPop(); !ok {
				r.execQ.Park(p)
				return false
			}
			x.start, x.at = p.Now(), exBegin
		case exBegin:
			if !op.AppEvent.ParkHost(p) {
				return false
			}
			if op.Count <= 0 {
				panic(fmt.Sprintf("proxy: operation with count %d", op.Count))
			}
			x.at = exPrograms
			if copiesInput(op) {
				x.at = exCopied
				p.ParkSleep(r.dev.TransferTime(op.Count*4, 1))
				return false
			}
		case exCopied:
			r.copyInput(op)
			x.at = exPrograms
		case exPrograms:
			x.at = r.startPrograms(op)
		case exRun:
			// One program runs right here, as a sub-machine; several run as
			// processes of their own and open the latch when all are done.
			if x.nch == 1 {
				if !x.chans[0].step(p) {
					return false
				}
			} else if !x.join.Park(p) {
				return false
			}
			x.at = exComplete
		case exComplete:
			r.complete(p, op)
			x.op, x.at = nil, exPop
		}
	}
}

// copiesInput reports whether op first stages input data into the working
// (output) buffer: out-of-place collectives copy the whole input; AllGather
// copies the rank's contribution into its own output span.
func copiesInput(op *OpRequest) bool {
	if op.Op == collective.AllGather && op.SendBuf == nil {
		panic("proxy: AllGather without send buffer")
	}
	return op.SendBuf != nil && (op.SendBuf != op.RecvBuf || op.Op == collective.AllGather)
}

// copyInput applies the staging copy to backed buffers.
func (r *Runner) copyInput(op *OpRequest) {
	if !op.SendBuf.Backed() || !op.RecvBuf.Backed() {
		return
	}
	var off int64
	if op.Op == collective.AllGather {
		off = int64(r.rank) * op.Count
	}
	copy(op.RecvBuf.Data()[off:off+op.Count], op.SendBuf.Data()[:op.Count])
}

// startPrograms lowers op to its channel programs — each over the steps of
// the program its interpreter ran last — starts them and returns the stage to
// continue at. What sets a point-to-point transfer apart inside
// the interpreter is decided here, as chanProgram fields: its connections are
// the communicator-lifetime ones, its flows belong to no generation, channel
// or collective, and its step is neither counted nor traced as a step.
func (r *Runner) startPrograms(op *OpRequest) execStage {
	x, c := &r.ex, r.comm
	x.bytes, x.nch = op.Count*4, 1
	tag := trace.FlowTag{
		Comm: int32(c.Info.ID), From: int32(r.rank),
		Gen: int32(r.gen), Op: int32(op.Op), Seq: op.seq,
	}
	if op.P2P != 0 {
		tag.Channel, tag.Gen, tag.Op = -1, -1, -1
		run := r.channel(0)
		run.start(chanProgram{prog: r.lowerP2P(run.prog.Steps, op), buf: op.RecvBuf, conns: c.p2p, tag: tag})
		return exRun
	}
	n := c.Info.NumRanks()
	if op.Op == collective.AllGather {
		x.bytes *= int64(n)
	}
	// A single-rank communicator has no schedule: the initial copy is the
	// whole op.
	if n == 1 {
		return exComplete
	}
	cs := c.gens[r.gen]
	algo := collective.Select(&cs.strategy, op.Op, n, op.Root, x.bytes)
	x.nch = collective.Channels(algo, cs.rings)
	var join *sim.Latch
	if x.nch > 1 {
		join = &x.join
		join.Reset(x.nch)
	}
	for ch := 0; ch < x.nch; ch++ {
		tag.Channel = int32(ch)
		run := r.channel(ch)
		run.start(chanProgram{
			prog: collective.Lower(run.prog.Steps, algo, op.Op, cs.rings, r.rank, ch, op.Root, op.Count),
			buf:  op.RecvBuf, conns: cs.conns, algo: algo, tag: tag,
			steps: c.telSteps, rec: c.rec, done: join,
		})
		if x.nch > 1 {
			run.spawn()
		}
	}
	return exRun
}

// complete reports the finished op: to telemetry, its issuer, the runner's
// collective history, the trace, and a reconfiguration waiting for the
// pipeline to drain.
func (r *Runner) complete(p *sim.Proc, op *OpRequest) {
	x, c := &r.ex, r.comm
	// The op-lifecycle span only observes: Span is a value struct, so this
	// emits without allocating, and is a branch-and-return when recording
	// is off.
	span := trace.Span{
		Kind: trace.KindOp, Op: int32(op.Op),
		Start: x.start, End: p.Now(),
		Host: int32(c.Info.Ranks[r.rank].Host),
		GPU:  int32(c.Info.Ranks[r.rank].GPU),
		Comm: int32(c.Info.ID), Rank: int32(r.rank),
		Peer: -1, Channel: -1, Step: -1,
		Gen: int32(r.gen), Seq: op.seq, Bytes: x.bytes,
		Flow: -1, Src: -1, Dst: -1,
	}
	if op.P2P != 0 {
		span.Kind, span.Op, span.Gen = trace.KindP2P, -1, -1
		span.Peer, span.Label = int32(op.Peer), p2pLabels[op.P2P]
	} else {
		c.telOps.Inc()
		r.collInFlight--
		// The management plane's record (Deployment.CommTrace).
		r.history[r.done%HistoryLen] = OpResult{Seq: op.seq, Op: op.Op, Start: x.start, End: p.Now(), Bytes: x.bytes}
		r.done++
	}
	if op.OnComplete != nil {
		op.OnComplete.OpCompleted()
	}
	c.rec.Emit(span)
	r.idleWQ.WakeAll(c.s)
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

// channel returns this rank's interpreter for channel ch.
func (r *Runner) channel(ch int) *chanRun {
	x := &r.ex
	for len(x.chans) <= ch {
		n := r.comm.Info.NumRanks()
		peers := make([]*transport.Conn, 2*n)
		x.chans = append(x.chans, &chanRun{
			r:    r,
			name: fmt.Sprintf("proxy:c%d:r%d:ch%d", r.comm.Info.ID, r.rank, len(x.chans)),
			to:   peers[:n], from: peers[n:],
		})
	}
	return x.chans[ch]
}

// chanProgram is what a chanRun interprets, and against what: everything
// that differs from op to op, and between a collective and a point-to-point
// transfer, set up by the executor (Runner.startPrograms).
type chanProgram struct {
	prog collective.Program
	buf  *gpusim.Buffer // the op's working buffer: sends read it, receives land in it
	// conns[Edge{algo, tag.Channel, from, to}] carries a transfer from → to.
	conns map[collective.Edge]*transport.Conn
	algo  collective.Algo
	// tag rides every message onto its fabric flow, joining network transfers
	// back to (comm, seq, step) in the trace, and labels the step spans; To
	// and Step are filled in per step.
	tag   trace.FlowTag
	steps *telemetry.Counter // counts the steps taken (nil: uncounted)
	rec   *trace.Recorder    // gets a KindStep span per step (nil: none)
	done  *sim.Latch         // counted down at the end (nil: run inline)
}

// chanRun interprets one program of this rank — one channel of a
// collective, or a point-to-point transfer: a fused kernel launch, then for
// every round the rank takes part in, the round's send and its receive with
// the receive-side GPU work.
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
	name string    // process name, when spawned
	proc *sim.Proc // the process step runs as when spawned; restarted op after op

	chanProgram
	at resumePoint

	// to[peer] and from[peer] are the connections of (tag.Gen, algo) this
	// interpreter has already looked up in conns; a program names the same
	// few peers step after step and op after op, and the table spares each
	// step two lookups under a five-word key.
	to, from []*transport.Conn

	// The step being interpreted.
	si                 int // index into prog.Steps
	stepStart          sim.Time
	busy               sim.Duration
	sendConn, recvConn *transport.Conn
	ks, kr, k          int // send slices, receive slices, current slice

	// The receive in progress.
	d        transport.Delivery
	off, l   int64
	copyTime sim.Duration
}

// start points the interpreter at the beginning of a program.
func (c *chanRun) start(cp chanProgram) {
	if cp.tag.Gen != c.tag.Gen || cp.algo != c.algo {
		clear(c.to)
		clear(c.from)
	}
	c.chanProgram, c.at, c.si = cp, atLaunch, 0
}

// spawn runs the program as a process of its own.
func (c *chanRun) spawn() {
	if c.proc == nil {
		c.proc = c.r.comm.s.GoStep(c.name, c.step)
	} else {
		c.proc.Restart()
	}
}

// resumePoint says where chanRun.step continues. The interpreter waits in
// three places — atStep, atRecv and atReceived are where it resumes after
// them; the other two values only sequence the loop.
type resumePoint uint8

const (
	atLaunch   resumePoint = iota // first dispatch: launch the kernel
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
	r := c.r
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
	c.steps.Inc()
	c.tag.To, c.tag.Step = int32(st.SendPeer), int32(c.si)
	c.stepStart, c.busy = p.Now(), 0
	c.sendConn, c.recvConn = nil, nil
	if st.SendPeer >= 0 {
		c.sendConn = c.conn(c.to, st.SendPeer, r.rank, st.SendPeer)
	}
	if st.RecvPeer >= 0 {
		c.recvConn = c.conn(c.from, st.RecvPeer, st.RecvPeer, r.rank)
	}
	c.ks, c.kr, c.k = 1, 1, 0
	if c.prog.Pipelined {
		c.ks, c.kr = sliceCount(r.comm.cfg, st.SendLen*4), sliceCount(r.comm.cfg, st.RecvLen*4)
	}
	return true
}

// conn returns the program's connection from → to, one end of which is peer:
// out of table (to or from) when the interpreter has used it before under
// this generation and algorithm, out of the edge map the first time.
func (c *chanRun) conn(table []*transport.Conn, peer, from, to int) *transport.Conn {
	if table[peer] == nil {
		table[peer] = c.conns[collective.Edge{Algo: c.algo, Channel: int(c.tag.Channel), From: from, To: to}]
	}
	return table[peer]
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
	if c.buf != nil && c.buf.Backed() {
		data = c.r.comm.snaps.get(l)
		copy(data, c.buf.Data()[off:off+l])
	}
	c.sendConn.Send(l*4, data, &c.tag)
}

// land accounts the copy/reduce of the slice just received and, for
// backed buffers, applies its data.
func (c *chanRun) land() {
	c.busy += c.copyTime
	d, buf := c.d, c.buf
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
// The pool is the communicator's own lock-free front: a miss takes from
// the deployment's snapshot store before it allocates, and release hands
// the idle snapshots back there when the communicator ends. Bin c holds
// only slices whose capacity covers 1<<c elements: put files a slice by
// floor(log2(cap)), and a fresh one is made with capacity 1<<c.
type snapPool struct {
	free  [48][][]float32
	store *freelist.List[float32] // ended communicators' snapshots, all of power-of-two capacity; nil keeps none
}

func (sp *snapPool) get(n int64) []float32 {
	class := bits.Len64(uint64(n - 1))
	if k := len(sp.free[class]); k > 0 {
		b := sp.free[class][k-1]
		sp.free[class] = sp.free[class][:k-1]
		return b[:n]
	}
	if b := sp.store.Get(1 << class); b != nil {
		return b[:n]
	}
	return make([]float32, n, 1<<class)
}

func (sp *snapPool) put(b []float32) {
	class := bits.Len64(uint64(cap(b))) - 1
	sp.free[class] = append(sp.free[class], b)
}

// release hands every idle snapshot to the store and empties the pool.
// A snapshot still riding a message is not idle: if it lands later it
// comes back to this pool, and goes no further.
func (sp *snapPool) release() {
	for c, bin := range sp.free {
		for _, b := range bin {
			sp.store.Put(b)
		}
		sp.free[c] = nil
	}
}

// endStep records the finished step's span.
func (c *chanRun) endStep(p *sim.Proc) {
	if !c.rec.Enabled(trace.KindStep) {
		return
	}
	r, st := c.r, &c.prog.Steps[c.si]
	peer := st.SendPeer
	if peer < 0 {
		peer = st.RecvPeer
	}
	c.rec.Emit(trace.Span{
		Kind: trace.KindStep, Op: c.tag.Op,
		Start: c.stepStart, End: p.Now(), Busy: c.busy,
		Host: int32(r.comm.Info.Ranks[r.rank].Host),
		GPU:  int32(r.comm.Info.Ranks[r.rank].GPU),
		Comm: c.tag.Comm, Rank: c.tag.From, Peer: int32(peer),
		Channel: c.tag.Channel, Gen: c.tag.Gen, Step: c.tag.Step,
		Seq: c.tag.Seq, Bytes: (st.SendLen + st.RecvLen) * 4,
		Flow: -1, Src: -1, Dst: -1,
	})
}
