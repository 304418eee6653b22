// Package proxy implements the MCCS proxy engine (paper §4.2): the per-GPU
// component that bridges high-level communicators to low-level resources.
// A Runner executes one rank of one communicator: it dequeues operation
// requests from the frontend, interprets the rank's schedule programs
// (collective.Lower) over the transport connections, and implements the
// dynamic reconfiguration protocol of Fig. 4 — stall, sequence-number
// AllGather on the control ring, drain to the maximum launched sequence,
// tear down and rebuild connections under the new strategy.
package proxy

import (
	"fmt"
	"slices"
	"time"

	"mccs/internal/collective"
	"mccs/internal/control"
	"mccs/internal/freelist"
	"mccs/internal/gpusim"
	"mccs/internal/netsim"
	"mccs/internal/sim"
	"mccs/internal/spec"
	"mccs/internal/telemetry"
	"mccs/internal/topo"
	"mccs/internal/trace"
	"mccs/internal/transport"
)

// Config is the proxy-engine cost model.
type Config struct {
	// MinSliceBytes and MaxSlices control intra-step pipelining: each
	// ring step's chunk is cut into up to MaxSlices slices of at least
	// MinSliceBytes, and slices stream independently. This mirrors
	// NCCL's FIFO slots; without it, a one-chunk step pipeline
	// serializes the ring whenever ranks drift out of phase.
	MinSliceBytes int64
	MaxSlices     int
	// LabelSalt perturbs connection ECMP labels, letting experiment
	// harnesses sample the ECMP collision distribution across trials.
	LabelSalt uint64

	// UnsafeSkipSeqBarrier disables the sequence-number AllGather /
	// drain / completion barrier of the Fig. 4 reconfiguration protocol:
	// a rank switches generations as soon as its own pipeline is idle,
	// without coordinating with peers. It exists ONLY so the chaos
	// harness can prove it detects the protocol's absence (mixed-
	// generation execution, stranded receives, corrupt results). Never
	// set it in a real deployment.
	UnsafeSkipSeqBarrier bool
}

// The proxy engine's fixed latencies, in the range the paper reports.
const (
	// KernelLaunch is charged once per collective per channel (the fused
	// NCCL-style communication kernel launch).
	KernelLaunch = 10 * time.Microsecond
	// ConnSetup and ConnTeardown model per-generation connection
	// (re)establishment during init and reconfiguration.
	ConnSetup    = 300 * time.Microsecond
	ConnTeardown = 100 * time.Microsecond
	// CtrlHopLatency is the per-hop latency of the communicator's
	// control ring.
	CtrlHopLatency = 15 * time.Microsecond
)

// DefaultConfig returns the slicing every deployment runs with: slices of
// at least 512 KiB, at most eight per step.
func DefaultConfig() Config {
	return Config{
		MinSliceBytes: 512 << 10,
		MaxSlices:     8,
	}
}

// OpRequest asks a rank's runner to execute one operation: a collective,
// or — when P2P is set — one half of a point-to-point transfer (p2p.go).
type OpRequest struct {
	Op   collective.Op
	Root int
	// P2P makes the request a send of Count elements of RecvBuf to rank
	// Peer, or a receive of them from it; Op, Root and SendBuf are unused.
	P2P  P2PKind
	Peer int
	// Count is the element count: per-rank input elements for AllGather,
	// total buffer elements otherwise.
	Count int64
	// SendBuf is the input buffer. For in-place operation it may equal
	// RecvBuf (AllReduce/ReduceScatter/Broadcast/Reduce); for AllGather
	// it is the rank's contribution.
	SendBuf *gpusim.Buffer
	// RecvBuf is the output buffer.
	RecvBuf *gpusim.Buffer
	// AppEvent must complete before the collective starts (the tenant
	// stream's compute dependency). It is an instance snapshot taken by
	// the shim at issue time, so later re-records of the same stream
	// event (by subsequent collectives) cannot retarget this wait.
	AppEvent gpusim.EventInstance
	// OnComplete, when non-nil, is told at completion; the shim's
	// per-operation handle takes it from there to the communicator event
	// tenant streams wait on.
	OnComplete Completer

	// seq is assigned by the runner at launch (collectives only).
	seq uint64
}

// Completer is what a runner reports a finished operation to. It is an
// interface and not a func so that the issuer's record of the operation can
// be the receiver: a closure would be one more allocation per operation.
type Completer interface {
	OpCompleted()
}

// Sequence returns the sequence number the runner assigned at launch
// (0 until then, and for point-to-point operations). The shim reads it
// from completion callbacks to stamp its command-round-trip trace spans.
func (o *OpRequest) Sequence() uint64 { return o.seq }

// OpResult reports one executed operation.
type OpResult struct {
	Seq        uint64
	Op         collective.Op
	Start, End sim.Time
	// Bytes is the output-buffer size (the AlgBW numerator).
	Bytes int64
}

// Elapsed returns the collective's execution time.
func (r OpResult) Elapsed() time.Duration { return r.End.Sub(r.Start) }

// HistoryLen is how many completed collectives a runner remembers: the
// management plane's per-rank collective history (paper §4.3), which the
// traffic-scheduling policy reads its time windows from.
const HistoryLen = 64

// ReconfigRequest carries a new strategy to a rank's runner.
type ReconfigRequest struct {
	Strategy spec.Strategy
	// Done is fired once this rank has switched (use a latch across
	// ranks for full-communicator completion).
	Done *sim.Latch
}

type shutdownMsg struct{}

// Msg is the runner command union: *OpRequest, *ReconfigRequest or
// shutdownMsg.
type Msg any

// Comm is the cluster-wide communicator object inside the service: the
// runners of every rank plus the connection generations they share.
// Everything here runs in scheduler context.
type Comm struct {
	Info    spec.CommInfo
	cfg     Config
	s       *sim.Scheduler
	cluster *topo.Cluster
	engines map[topo.HostID]*transport.Engine
	devices map[topo.GPUID]*gpusim.Device
	ctrl    *control.Ring

	// rec is the flight recorder attached to the scheduler when the
	// communicator was built (possibly nil — every emit is nil-safe).
	rec *trace.Recorder

	// Telemetry handles (tenant-labeled), cached at construction; nil
	// and no-ops when no registry is attached.
	telOps           *telemetry.Counter
	telSteps         *telemetry.Counter
	telReconfigs     *telemetry.Counter
	telBarrierPhases *telemetry.Counter
	telReconfigDur   *telemetry.Histogram

	Runners []*Runner

	// conn generations, gens[g] being generation g: it is built lazily
	// by the first runner to reach it during reconfiguration.
	gens []*connSet
	// p2p holds communicator-lifetime point-to-point connections (see
	// p2p.go).
	p2p map[collective.Edge]*transport.Conn

	snaps snapPool // message data snapshots (exec.go)
}

// connSet is one generation of connections: one per edge the strategy
// provisions (collective.Edges), whichever schedule family uses it.
type connSet struct {
	strategy spec.Strategy
	rings    []*collective.Ring
	edges    []collective.Edge // establishment order
	conns    map[collective.Edge]*transport.Conn
}

// at appends to out the connections behind a management-plane key: the
// ring edge and, when the strategy provisions them, the tree and
// butterfly edges between the same ranks on the same channel (at most
// one per algorithm).
func (cs *connSet) at(out []*transport.Conn, k spec.ConnKey) []*transport.Conn {
	for _, algo := range []collective.Algo{collective.AlgoRing, collective.AlgoTree, collective.AlgoHD} {
		if conn, ok := cs.conns[collective.Edge{Algo: algo, Channel: k.Channel, From: k.FromRank, To: k.ToRank}]; ok {
			out = append(out, conn)
		}
	}
	return out
}

// closeFrom closes the generation's connections whose sender is rank
// (every connection when rank < 0).
func (cs *connSet) closeFrom(rank int) {
	for _, e := range cs.edges {
		if rank < 0 || e.From == rank {
			cs.conns[e].Close()
		}
	}
}

// NewComm wires up a communicator: control ring, generation-0 connections
// and one runner per rank. Runner processes are spawned immediately: per
// rank, two stackless processes (sim.Scheduler.GoStep), the control loop
// and the execution pipeline, so a communicator owns no goroutine. Message
// snapshots miss into, and go back to, snaps.
func NewComm(
	s *sim.Scheduler,
	cluster *topo.Cluster,
	engines map[topo.HostID]*transport.Engine,
	devices map[topo.GPUID]*gpusim.Device,
	info spec.CommInfo,
	cfg Config,
	snaps *freelist.List[float32],
) (*Comm, error) {
	if err := info.Strategy.Validate(info.NumRanks()); err != nil {
		return nil, err
	}
	ctrl, err := control.NewRing(s, info.NumRanks(), CtrlHopLatency)
	if err != nil {
		return nil, err
	}
	c := &Comm{
		Info: info, cfg: cfg, s: s, cluster: cluster,
		engines: engines, devices: devices, ctrl: ctrl,
		rec:   trace.Of(s),
		p2p:   make(map[collective.Edge]*transport.Conn),
		snaps: snapPool{store: snaps},
	}
	reg := telemetry.Of(s)
	tenant := telemetry.L("tenant", string(info.App))
	c.telOps = reg.Counter("mccs_proxy_ops_total", "ops", tenant)
	c.telSteps = reg.Counter("mccs_proxy_steps_total", "steps", tenant)
	c.telReconfigs = reg.Counter("mccs_proxy_reconfigs_total", "reconfigurations", tenant)
	c.telBarrierPhases = reg.Counter("mccs_proxy_barrier_phases_total", "phases", tenant)
	c.telReconfigDur = reg.Histogram("mccs_proxy_reconfig_seconds", "seconds", nil, tenant)
	if _, err := c.connsFor(0, info.Strategy); err != nil {
		return nil, err
	}
	for rank := range info.Ranks {
		r := &Runner{
			comm: c, rank: rank,
			dev:   devices[info.Ranks[rank].GPU],
			queue: sim.NewQueue[Msg](),
			execQ: sim.NewQueue[*OpRequest](),
		}
		c.Runners = append(c.Runners, r)
		s.GoStep(fmt.Sprintf("proxy:c%d:r%d:ctl", info.ID, rank), r.ctlStep).Daemon()
		s.GoStep(fmt.Sprintf("proxy:c%d:r%d:exec", info.ID, rank), r.execStep).Daemon()
	}
	return c, nil
}

// connsFor returns (building if necessary) connection generation gen under
// the given strategy. Reconfiguring runners all converge on the same
// generation number, so the first one to arrive builds for everyone. A
// runner reaches generation g only from g-1, so gen is either built already
// or the next one.
func (c *Comm) connsFor(gen int, strategy spec.Strategy) (*connSet, error) {
	if gen < len(c.gens) {
		return c.gens[gen], nil
	}
	rings, err := collective.Rings(nil, &strategy)
	if err != nil {
		return nil, fmt.Errorf("proxy: %w", err)
	}
	cs := &connSet{
		strategy: strategy.Clone(), rings: rings,
		edges: collective.Edges(&strategy, rings),
		conns: make(map[collective.Edge]*transport.Conn),
	}
	for _, e := range cs.edges {
		fi, ti := c.Info.Ranks[e.From], c.Info.Ranks[e.To]
		label := connLabel(c.cfg.LabelSalt, c.Info.ID, gen, e.LabelChannel(), e.From, e.To)
		conn, err := c.engines[fi.Host].Connect(c.Info.App, fi.NIC, ti.NIC, e.Route(&strategy), label)
		if err != nil {
			return nil, fmt.Errorf("proxy: comm %d %v ch %d conn %d->%d: %w", c.Info.ID, e.Algo, e.Channel, e.From, e.To, err)
		}
		cs.conns[e] = conn
	}
	c.gens = append(c.gens, cs)
	return cs, nil
}

// connLabel derives the stable ECMP label of a connection, standing in for
// its transport 5-tuple.
func connLabel(salt uint64, id spec.CommID, gen, ch, from, to int) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range []uint64{salt, uint64(id), uint64(gen), uint64(ch), uint64(from), uint64(to)} {
		h = (h ^ v) * 1099511628211
	}
	return h
}

// newest returns the newest built generation. All runners share a
// generation outside of reconfigurations.
func (c *Comm) newest() *connSet { return c.gens[len(c.gens)-1] }

// UpdateRoutes re-pins connections of the current generation immediately
// (no barrier): route-only changes are safe because they affect only
// future messages. This is the FFA/PFA push path. A key re-pins every
// connection behind it, so a strategy that runs halving-doubling or the
// tree between two ranks moves those connections with the ring's. (The
// remembered override outlives the generation for ring and butterfly
// edges; tree edges are reconnected by ECMP, as collective.Edge.Route
// says.)
func (c *Comm) UpdateRoutes(routes map[spec.ConnKey]int) error {
	cs := c.newest()
	var buf [3]*transport.Conn
	// Check the whole push before moving anything: a push that stopped
	// part-way would leave connections re-pinned but not recorded in the
	// strategy, and the next reconfiguration would silently revert them.
	for k, idx := range routes {
		conns := cs.at(buf[:0], k)
		if len(conns) == 0 {
			return fmt.Errorf("proxy: route for unknown conn %d->%d ch %d", k.FromRank, k.ToRank, k.Channel)
		}
		if idx < spec.RouteECMP {
			return fmt.Errorf("proxy: route %d for conn %d->%d ch %d", idx, k.FromRank, k.ToRank, k.Channel)
		}
		for _, conn := range conns {
			if idx != spec.RouteECMP && conn.PathCount() == 0 {
				return fmt.Errorf("proxy: no path to pin conn %d->%d ch %d to", k.FromRank, k.ToRank, k.Channel)
			}
		}
	}
	for k, idx := range routes {
		for _, conn := range cs.at(buf[:0], k) {
			if err := conn.SetRoute(idx); err != nil {
				return err
			}
		}
	}
	// Remember the overrides so future reconfigurations keep them.
	if cs.strategy.Routes == nil {
		cs.strategy.Routes = make(map[spec.ConnKey]int)
	}
	for k, v := range routes {
		cs.strategy.Routes[k] = v
	}
	return nil
}

// ConnRoutes reports, for every inter-host connection key of the newest
// generation, the fabric links its messages currently traverse — over
// all the connections behind the key, so a link appears once per
// connection crossing it. This is the mapping the policy controller's
// recovery moves use to attribute link load to communicators.
func (c *Comm) ConnRoutes() map[spec.ConnKey][]netsim.LinkID {
	cs := c.newest()
	out := make(map[spec.ConnKey][]netsim.LinkID)
	for _, e := range cs.edges {
		if p := cs.conns[e].CurrentPath(); p != nil {
			out[e.Key()] = append(out[e.Key()], p...)
		}
	}
	return out
}

// RoutesOver reports whether any inter-host connection of the newest
// generation currently traverses link l. Unlike ConnRoutes it allocates
// nothing, so a control loop can ask it on every tick.
func (c *Comm) RoutesOver(l netsim.LinkID) bool {
	cs := c.newest()
	for _, e := range cs.edges {
		if slices.Contains(cs.conns[e].CurrentPath(), l) {
			return true
		}
	}
	return false
}

// Strategy returns the strategy of the newest connection generation.
func (c *Comm) Strategy() spec.Strategy {
	return c.newest().strategy.Clone()
}

// Runner executes one rank of the communicator. It is split the way the
// paper's proxy engine is: a control loop that launches operations and
// handles reconfiguration commands, and an in-order execution pipeline
// (exec.go) that actually runs them — so the control path is never blocked
// behind the data path (the property that makes the Fig. 4 barrier
// deadlock-free: a rank that already launched AR1 can still join the
// AllGather while AR1 is stalled waiting for peers). Both are step
// functions, ctlStep and execStep, whose state lives here.
type Runner struct {
	comm  *Comm
	rank  int
	dev   *gpusim.Device
	queue *sim.Queue[Msg]        // control commands from the frontend
	execQ *sim.Queue[*OpRequest] // launched operations, in order
	ctl   ctlState               // the control loop
	ex    execState              // the execution pipeline (exec.go)

	gen          int
	seq          uint64 // collectives launched
	collInFlight int    // collectives launched but not yet completed
	idleWQ       sim.WaitQueue

	// history holds the last HistoryLen completed collectives, the one
	// completed n-th at history[(n-1)%HistoryLen]; done counts them all.
	history [HistoryLen]OpResult
	done    uint64

	// pendingReconfigs stashes reconfig requests that arrive while a
	// reconfiguration drain is already in progress.
	pendingReconfigs []*ReconfigRequest
	stopped          bool
}

// Enqueue delivers a message to the runner's command queue. Call from
// scheduler context; the frontend applies its command-path latency before
// calling.
func (r *Runner) Enqueue(m Msg) { r.queue.Push(r.comm.s, m) }

// Generation returns the current connection generation.
func (r *Runner) Generation() int { return r.gen }

// History returns a copy of the runner's last HistoryLen completed
// collectives, oldest first.
func (r *Runner) History() []OpResult {
	out := make([]OpResult, 0, min(r.done, HistoryLen))
	for i := r.done - uint64(cap(out)); i < r.done; i++ {
		out = append(out, r.history[i%HistoryLen])
	}
	return out
}

// Quiescent reports whether the runner has no queued or in-flight work:
// a control loop reading commands (not wedged in a reconfiguration
// barrier), empty command queue, empty and idle execution pipeline, no
// outstanding collectives, and no stashed reconfigurations. The chaos
// harness asserts this for every runner once the simulation drains.
func (r *Runner) Quiescent() bool {
	return r.ctl.at == ctlCommands && r.queue.Len() == 0 && r.execQ.Len() == 0 &&
		r.ex.op == nil && r.collInFlight == 0 && len(r.pendingReconfigs) == 0
}

// Executing returns the sequence number of the collective the runner has
// begun — past its app-event wait — and not finished; ok is false when
// there is none or the op is point-to-point. A reconfiguration waits for
// running collectives, so Generation is the one the op runs in. After the
// scheduler drains, it is an op this rank began and never finished.
func (r *Runner) Executing() (seq uint64, ok bool) {
	x := &r.ex
	if x.op == nil || x.at <= exBegin || x.op.P2P != 0 {
		return 0, false
	}
	return x.op.seq, true
}

// launch hands the op to the execution pipeline. A collective is assigned
// the next sequence number; a point-to-point operation is not (see p2p.go
// for why).
func (r *Runner) launch(op *OpRequest) {
	if op.P2P == 0 {
		r.seq++
		op.seq = r.seq
		r.collInFlight++
	}
	r.execQ.Push(r.comm.s, op)
}

// Shutdown stops the runner after it drains messages ahead of the marker.
func (r *Runner) Shutdown() { r.Enqueue(shutdownMsg{}) }

// Destroy shuts down every runner and closes the communicator's
// connections. Like ncclCommDestroy, callers must have completed all
// outstanding operations first — destroying a communicator with
// collectives in flight strands the peers.
func (c *Comm) Destroy() {
	for _, r := range c.Runners {
		r.Shutdown()
	}
	for _, cs := range c.gens {
		cs.closeFrom(-1)
	}
	for _, conn := range c.p2p {
		conn.Close()
	}
	c.Release()
}

// Release hands the communicator's idle message snapshots to the store
// it was built with, which the next communicator's misses take from (see
// snapPool). Destroy calls it; a deployment that closes calls it for the
// communicators still alive.
func (c *Comm) Release() { c.snaps.release() }

// Undelivered returns an error naming a connection of the communicator —
// of any generation, or point-to-point — that holds a message sent and
// not received (transport.Conn.Pending), and nil when none does. Once the
// scheduler has drained, a held message was lost or leaked. The connection
// named is the first in generation and establishment order, then the
// lowest point-to-point edge, so the report is the same on every run.
func (c *Comm) Undelivered() error {
	held := func(kind string, e collective.Edge, n int) error {
		return fmt.Errorf("proxy: comm %d %s conn %d->%d (channel %d) holds %d undelivered message(s)",
			c.Info.ID, kind, e.From, e.To, e.Channel, n)
	}
	for g, cs := range c.gens {
		for _, e := range cs.edges {
			if n := cs.conns[e].Pending(); n > 0 {
				return held(fmt.Sprintf("generation %d %v", g, e.Algo), e, n)
			}
		}
	}
	var first *collective.Edge
	for e, conn := range c.p2p {
		if conn.Pending() > 0 && (first == nil || e.From < first.From || e.From == first.From && e.To < first.To) {
			first = &e
		}
	}
	if first != nil {
		return held("point-to-point", *first, c.p2p[*first].Pending())
	}
	return nil
}

// emitPhase counts one completed reconfiguration barrier phase and
// records it as a span when barrier tracing is on.
func (r *Runner) emitPhase(p *sim.Proc, code int32, start sim.Time) {
	r.comm.telBarrierPhases.Inc()
	if !r.comm.rec.Enabled(trace.KindBarrier) {
		return
	}
	r.comm.rec.Emit(trace.Span{
		Kind: trace.KindBarrier, Op: code,
		Start: start, End: p.Now(),
		Host: int32(r.comm.Info.Ranks[r.rank].Host),
		GPU:  int32(r.comm.Info.Ranks[r.rank].GPU),
		Comm: int32(r.comm.Info.ID), Rank: int32(r.rank),
		Peer: -1, Channel: -1, Step: -1,
		Gen: int32(r.gen), Seq: r.seq,
		Flow: -1, Src: -1, Dst: -1,
	})
}

// ctlPhase says where ctlStep continues: reading commands, or a phase of the
// Fig. 4 protocol. Every phase but the first is a reconfiguration in
// progress, and each ends in a wait.
type ctlPhase uint8

const (
	ctlCommands   ctlPhase = iota // launch ops and start reconfigurations; park on the command queue
	ctlSeq                        // the sequence-number AllGather
	ctlDrain                      // launch until this rank has launched what any peer has
	ctlIdle                       // wait for this rank's launched collectives to complete
	ctlCompletion                 // the completion AllGather, then the teardown sleep
	ctlTeardown                   // (after the teardown sleep) switch generation; the rebuild sleep
	ctlRebuild                    // (after the rebuild sleep) replay the stashed collectives
)

// ctlState is what ctlStep keeps between dispatches: the phase, and the
// reconfiguration in progress.
type ctlState struct {
	at      ctlPhase
	req     *ReconfigRequest
	gather  control.Gather // this rank's part of the barrier in progress
	maxSeq  uint64         // the highest sequence number any rank has launched
	start   sim.Time       // when the reconfiguration began
	phase   sim.Time       // when the current phase began (the completion phase spans the idle wait)
	stashed []*OpRequest   // collectives that arrived during the drain, replayed after the switch
}

// ctlStep is the control loop: it launches operations onto the execution
// pipeline and runs the Fig. 4 reconfiguration protocol, one phase after
// another, parking on the command queue, the control ring, the idle wait
// queue and the teardown and rebuild sleeps. It returns true once a
// shutdown has been read.
func (r *Runner) ctlStep(p *sim.Proc) bool {
	x, c := &r.ctl, r.comm
	for {
		switch x.at {
		case ctlCommands:
			if r.stopped {
				return true
			}
			m, ok := r.queue.TryPop()
			if !ok {
				r.queue.Park(p)
				return false
			}
			switch m := m.(type) {
			case *OpRequest:
				r.launch(m)
			case *ReconfigRequest:
				r.beginReconfig(p, m)
			case shutdownMsg:
				r.stopped = true
			default:
				panic(fmt.Sprintf("proxy: unknown message %T", m))
			}
		case ctlSeq:
			// 1. Exchange last-launched sequence numbers on the control
			//    ring. This stalls new launches locally (we are not reading
			//    the command queue) without any fast-path cost when no
			//    reconfig is pending.
			if !c.ctrl.Park(p, &x.gather) {
				return false
			}
			x.maxSeq = uint64(control.Max(x.gather.Out))
			r.emitPhase(p, trace.PhaseSeqExchange, x.phase)
			x.phase, x.at = p.Now(), ctlDrain
		case ctlDrain:
			// 2. Drain-launch: collectives that peers already launched must
			//    run under the old configuration. The frontend will deliver
			//    them; reconfigurations that arrive meanwhile are stashed.
			if r.seq >= x.maxSeq {
				r.emitPhase(p, trace.PhaseDrain, x.phase)
				r.beginCompletion(p)
				continue
			}
			m, ok := r.queue.TryPop()
			if !ok {
				r.queue.Park(p)
				return false
			}
			switch m := m.(type) {
			case *OpRequest:
				r.launch(m)
			case *ReconfigRequest:
				r.pendingReconfigs = append(r.pendingReconfigs, m)
			case shutdownMsg:
				r.stop()
			}
		case ctlIdle:
			// Wait for every launched collective to complete. P2P
			// operations are deliberately excluded: their connections
			// survive reconfigurations, so an in-flight pairwise transfer
			// can safely straddle the strategy switch — and waiting for one
			// could deadlock the barrier, since its matching half may be
			// queued behind the peer's own reconfiguration.
			if r.collInFlight > 0 {
				r.idleWQ.Park(p)
				return false
			}
			x.at = ctlCompletion
			if !c.cfg.UnsafeSkipSeqBarrier {
				c.ctrl.Begin(&x.gather, r.rank, int64(r.seq))
			}
		case ctlCompletion:
			if !c.cfg.UnsafeSkipSeqBarrier && !c.ctrl.Park(p, &x.gather) {
				return false
			}
			r.emitPhase(p, trace.PhaseCompletion, x.phase)
			// 4. Tear down this rank's send connections and switch to the
			//    next generation, rebuilding connections under the new
			//    strategy.
			x.phase, x.at = p.Now(), ctlTeardown
			c.gens[r.gen].closeFrom(r.rank)
			p.ParkSleep(ConnTeardown)
			return false
		case ctlTeardown:
			r.emitPhase(p, trace.PhaseTeardown, x.phase)
			x.phase, x.at = p.Now(), ctlRebuild
			r.gen++
			if _, err := c.connsFor(r.gen, x.req.Strategy); err != nil {
				panic(fmt.Sprintf("proxy: rebuilding connections: %v", err))
			}
			p.ParkSleep(ConnSetup)
			return false
		case ctlRebuild:
			r.emitPhase(p, trace.PhaseRebuild, x.phase)
			c.telReconfigs.Inc()
			c.telReconfigDur.Observe(p.Now().Sub(x.start).Seconds())
			// Replay collectives that arrived during the drain under the
			// new configuration, in arrival order.
			for _, op := range x.stashed {
				r.launch(op)
			}
			clear(x.stashed)
			req := x.req
			x.req, x.stashed, x.at = nil, x.stashed[:0], ctlCommands
			if req.Done != nil {
				req.Done.Done(c.s)
			}
			// Reconfigurations stashed during this one run next, in order,
			// before another command is read.
			if len(r.pendingReconfigs) > 0 {
				next := r.pendingReconfigs[0]
				r.pendingReconfigs = r.pendingReconfigs[1:]
				r.beginReconfig(p, next)
			}
		}
	}
}

// beginReconfig starts the Fig. 4 protocol for req on this rank: with its
// sequence-number AllGather, or — without the barrier — straight at the
// completion phase.
func (r *Runner) beginReconfig(p *sim.Proc, req *ReconfigRequest) {
	if err := req.Strategy.Validate(r.comm.Info.NumRanks()); err != nil {
		panic(fmt.Sprintf("proxy: reconfigure with bad strategy: %v", err))
	}
	x := &r.ctl
	x.req, x.start, x.phase = req, p.Now(), p.Now()
	if r.comm.cfg.UnsafeSkipSeqBarrier {
		r.beginCompletion(p)
		return
	}
	r.comm.ctrl.Begin(&x.gather, r.rank, int64(r.seq))
	x.at = ctlSeq
}

// beginCompletion starts step 3, the completion barrier: wait for this
// rank's execution pipeline to drain, then AllGather again. Local
// completion means this rank's receives are done, but its final sends may
// still be in flight to peers; closing connections is safe only once every
// rank has finished op maxSeq, which the second AllGather guarantees (it
// doubles as the teardown handshake).
//
// Point-to-point operations are not part of the barrier: any queued P2P
// requests are launched now (their connections are communicator-lifetime,
// so they may straddle the switch), and the idle wait covers collectives
// only. Queued collectives are stashed for replay, queued reconfigurations
// for after this one.
func (r *Runner) beginCompletion(p *sim.Proc) {
	x := &r.ctl
	x.phase, x.at = p.Now(), ctlIdle
	for {
		m, ok := r.queue.TryPop()
		if !ok {
			return
		}
		switch m := m.(type) {
		case *OpRequest:
			if m.P2P != 0 {
				r.launch(m)
			} else {
				x.stashed = append(x.stashed, m)
			}
		case *ReconfigRequest:
			r.pendingReconfigs = append(r.pendingReconfigs, m)
		case shutdownMsg:
			r.stop()
			return
		}
	}
}

// stop abandons the reconfiguration in progress on a shutdown read during
// its drain or completion phase: the collectives it stashed are dropped,
// and the loop goes back to the commands phase, which finishes it.
func (r *Runner) stop() {
	x := &r.ctl
	r.stopped = true
	clear(x.stashed)
	x.req, x.stashed, x.at = nil, x.stashed[:0], ctlCommands
}
