package proxy

import (
	"fmt"

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
			r.run(p, op, cs, algo, 0)
		} else {
			latch := sim.NewLatch(nch)
			for ch := 0; ch < nch; ch++ {
				ch := ch
				r.comm.s.Go(fmt.Sprintf("proxy:c%d:r%d:ch%d", r.comm.Info.ID, r.rank, ch), func(p2 *sim.Proc) {
					r.run(p2, op, cs, algo, ch)
					latch.Done(r.comm.s)
				})
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

// run interprets this rank's program for one channel of op under algo.
// It is the only place collectives touch connections: a fused kernel
// launch, then for every round the rank takes part in, the round's send
// and its receive with the receive-side GPU work.
//
// A pipelined program's step is cut into slices that stream
// independently (NCCL's FIFO-slot pipelining): a rank forwards slice k
// of a step as soon as it has received slice k of the previous step, so
// a transient phase skew between ranks costs one slice, not one chunk,
// of pipeline stall. Otherwise a step is one message. Sends are
// asynchronous and receives block, so paired exchanges within a round
// cannot deadlock; per-connection FIFO order keeps rounds matched
// without explicit tags.
func (r *Runner) run(p *sim.Proc, op *OpRequest, cs *connSet, algo collective.Algo, ch int) {
	prog := collective.Lower(algo, op.Op, cs.rings, r.rank, ch, op.Root, op.Count)
	cfg := r.comm.cfg

	// Fused communication kernel launch, once per channel.
	p.Sleep(cfg.KernelLaunch)

	rec := r.comm.rec
	traceSteps := rec.Enabled(trace.KindStep)
	backed := op.RecvBuf != nil && op.RecvBuf.Backed()
	for si, st := range prog.Steps {
		if st.Idle() {
			// Peers in this round exchange without us; nothing blocks
			// our round counter because each transfer pairs sender and
			// receiver explicitly.
			continue
		}
		r.comm.telSteps.Inc()
		// The tag rides every message of this step onto its fabric flow,
		// joining network transfers back to (comm, seq, step) in the
		// trace. Building it is stack-only, so it costs nothing when
		// recording is off.
		tag := trace.FlowTag{
			Comm: int32(r.comm.Info.ID), From: int32(r.rank), To: int32(st.SendPeer),
			Channel: int32(ch), Gen: int32(r.gen), Step: int32(si),
			Op: int32(op.Op), Seq: op.seq,
		}
		var stepStart sim.Time
		var busy sim.Duration
		if traceSteps {
			stepStart = p.Now()
		}
		var sendConn, recvConn *transport.Conn
		if st.SendPeer >= 0 {
			sendConn = cs.conns[collective.Edge{Algo: algo, Channel: ch, From: r.rank, To: st.SendPeer}]
		}
		if st.RecvPeer >= 0 {
			recvConn = cs.conns[collective.Edge{Algo: algo, Channel: ch, From: st.RecvPeer, To: r.rank}]
		}
		ks, kr := 1, 1
		if prog.Pipelined {
			ks, kr = sliceCount(cfg, st.SendLen*4), sliceCount(cfg, st.RecvLen*4)
		}
		for k := 0; k < ks || k < kr; k++ {
			if k < ks {
				if off, l := collective.Part(st.SendLen, ks, k); l > 0 {
					off += st.SendOff
					var data []float32
					if backed {
						data = append([]float32(nil), op.RecvBuf.Data()[off:off+l]...)
					}
					sendConn.SendTagged(l*4, data, nil, tag)
				}
			}
			if k < kr {
				if off, l := collective.Part(st.RecvLen, kr, k); l > 0 {
					off += st.RecvOff
					d := recvConn.Recv(p)
					passes := 1.0
					if st.RecvReduce {
						passes = 2.0
					}
					dt := r.dev.TransferTime(l*4, passes)
					p.Sleep(dt)
					busy += dt
					if d.Data != nil && backed {
						dst := op.RecvBuf.Data()[off : off+l]
						if int64(len(d.Data)) != l {
							panic(fmt.Sprintf("proxy: slice size mismatch: got %d elems, want %d", len(d.Data), l))
						}
						if st.RecvReduce {
							for i := range dst {
								dst[i] += d.Data[i]
							}
						} else {
							copy(dst, d.Data)
						}
					}
				}
			}
		}
		if traceSteps {
			peer := st.SendPeer
			if peer < 0 {
				peer = st.RecvPeer
			}
			rec.Emit(trace.Span{
				Kind: trace.KindStep, Op: int32(op.Op),
				Start: stepStart, End: p.Now(), Busy: busy,
				Host: int32(r.comm.Info.Ranks[r.rank].Host),
				GPU:  int32(r.comm.Info.Ranks[r.rank].GPU),
				Comm: int32(r.comm.Info.ID), Rank: int32(r.rank), Peer: int32(peer),
				Channel: int32(ch), Gen: int32(r.gen), Step: int32(si),
				Seq: op.seq, Bytes: (st.SendLen + st.RecvLen) * 4,
				Flow: -1, Src: -1, Dst: -1,
			})
		}
	}
}
