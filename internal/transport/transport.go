// Package transport implements the MCCS transport engine (paper §4.2): the
// component that moves collective bytes between hosts. It owns the
// mechanisms the provider's policies rely on — explicit route pinning per
// connection (the RoCEv2 UDP-source-port / policy-based-routing trick,
// §5 "Management") and time-window traffic gating (TS).
//
// A Conn is one directed point-to-point connection between two ranks'
// NICs, the analogue of an RDMA queue pair. Sends are asynchronous: bytes
// become a fabric flow (or an intra-host transfer) and a Delivery is
// pushed to the receiver when the transfer and its latency complete.
package transport

import (
	"fmt"
	"time"

	"mccs/internal/netsim"
	"mccs/internal/sim"
	"mccs/internal/spec"
	"mccs/internal/telemetry"
	"mccs/internal/topo"
	"mccs/internal/trace"
)

// The transport's fixed per-message latencies, the paper's testbed
// datapath constants.
const (
	// NetLatency is the fixed per-message inter-host latency (RDMA op
	// issue + propagation), added after the flow completes.
	NetLatency = 6 * time.Microsecond
	// IntraLatency is the per-message latency of intra-host channels.
	IntraLatency = 3 * time.Microsecond
)

// Config sets the transport cost model.
type Config struct {
	// IntraBps is the intra-host channel bandwidth (shared host memory /
	// NVLink class), bytes per second.
	IntraBps float64
	// UnserializedSends disables the per-connection FIFO and lets every
	// message enter the fabric immediately (processor sharing). Kept
	// only as an ablation: without serialization, concurrent slices of
	// one connection complete in a cluster and a phase-skewed ring
	// degenerates into a wave (see BenchmarkAblationConnSerialization).
	UnserializedSends bool
}

// DefaultConfig is the testbed datapath with intra-host channels of
// intraBps.
func DefaultConfig(intraBps float64) Config {
	return Config{IntraBps: intraBps}
}

// Delivery is one received message.
type Delivery struct {
	// Data is a snapshot of the sent elements when the sender's buffer
	// was backed; nil otherwise. Correctness tests run backed, the
	// performance harness unbacked.
	Data []float32
	// Seq is the sender-side message sequence number on this Conn.
	Seq uint64
}

// Engine is the per-host transport engine. It is shared by all
// applications on the host; per-application traffic gates enforce TS
// schedules, which is exactly the enforcement point the paper describes
// ("transport engines in MCCS service then allow other applications to
// send traffic only when the prioritized application is idle").
type Engine struct {
	s       *sim.Scheduler
	cluster *topo.Cluster
	fabric  *netsim.Fabric
	cfg     Config
	host    topo.HostID

	gates map[spec.AppID]*Gate

	// perturb, when non-nil, returns an extra delay applied before each
	// message enters its channel (after TS gating). See SetSendPerturb.
	perturb func(bytes int64) time.Duration

	// Telemetry handles: per-host counters cached at construction,
	// per-tenant transmit counters created on first send by that tenant
	// (setup-time allocation; the send path itself only does nil-safe
	// handle updates).
	telMessages *telemetry.Counter
	telOOO      *telemetry.Counter
	telReg      *telemetry.Registry
	telHostName string
	telTxByApp  map[spec.AppID]*telemetry.Counter
}

// NewEngine creates the transport engine for one host.
func NewEngine(s *sim.Scheduler, cluster *topo.Cluster, fabric *netsim.Fabric, host topo.HostID, cfg Config) *Engine {
	e := &Engine{
		s: s, cluster: cluster, fabric: fabric, cfg: cfg, host: host,
		gates: make(map[spec.AppID]*Gate),
	}
	if reg := telemetry.Of(s); reg != nil {
		e.telReg = reg
		e.telHostName = cluster.Hosts[host].Name
		e.telMessages = reg.Counter("mccs_transport_messages_total", "messages",
			telemetry.L("host", e.telHostName))
		e.telOOO = reg.Counter("mccs_transport_ooo_deliveries_total", "messages",
			telemetry.L("host", e.telHostName))
		e.telTxByApp = make(map[spec.AppID]*telemetry.Counter)
	}
	return e
}

// txCounter returns the per-tenant transmit-bytes counter for app,
// creating it on first use. Nil when telemetry is off.
func (e *Engine) txCounter(app spec.AppID) *telemetry.Counter {
	if e.telReg == nil {
		return nil
	}
	c, ok := e.telTxByApp[app]
	if !ok {
		c = e.telReg.Counter("mccs_transport_tx_bytes_total", "bytes",
			telemetry.L("host", e.telHostName), telemetry.L("tenant", string(app)))
		e.telTxByApp[app] = c
	}
	return c
}

// Gate returns the traffic gate for an app, creating it on first use.
func (e *Engine) Gate(app spec.AppID) *Gate {
	g, ok := e.gates[app]
	if !ok {
		g = &Gate{}
		e.gates[app] = g
	}
	return g
}

// SetSendPerturb installs a fault-injection hook: fn is consulted once per
// message (in deterministic scheduler order) and its result delays the
// message's entry into the fabric or intra-host channel. Message order on
// each connection is preserved — the delay stalls the connection's FIFO,
// modeling NIC scheduling jitter or a congested PCIe root complex. A nil
// fn removes the hook. fn must be deterministic for reproducible runs.
func (e *Engine) SetSendPerturb(fn func(bytes int64) time.Duration) { e.perturb = fn }

// Conn is one directed connection. It is created by the sending host's
// engine; the receiving proxy holds the same object and calls Recv.
type Conn struct {
	eng  *Engine
	app  spec.AppID
	src  topo.NICID
	dst  topo.NICID
	intr bool // both endpoints on one host

	// route is the pinned fabric path; nil means ECMP by label.
	route []netsim.LinkID
	label uint64
	// gate is the app's TS traffic gate on the sending host, resolved once
	// here; Engine.Gate hands out the same object for schedule changes.
	gate *Gate

	inbox   sim.Queue[Delivery]
	sendSeq uint64
	closed  bool

	// recvSeq/stash re-sequence deliveries whose completion events fired
	// out of order (see TryRecv).
	recvSeq uint64
	stash   map[uint64]Delivery

	// msgs holds every message from Send until its delivery, in one slot
	// the whole way. A real connection (RDMA QP) transmits one message at a
	// time in order; without that, concurrent slices of one connection
	// would processor-share the path and complete in a cluster, destroying
	// the slice-level pipelining the collective engine depends on.
	//
	// The first started messages are in flight — the one being transmitted
	// (behind the TS gate, on the wire) plus the few still inside their
	// delivery latency — and the rest are queued behind them in send
	// order. Starting a message advances started; delivering one drops it
	// from the head. Every event on the way carries only the message's
	// sequence number (see the conn* handlers), so the message path
	// allocates no closures, and a message is copied only when a reordered
	// delivery overtook the head (see deliver).
	msgs    sim.Ring[message]
	started int
	sending bool // serialized mode: a message is between startNext and sent

	// telTx is the per-tenant transmit counter, resolved lazily on the
	// first send (nil, and a no-op, when telemetry is off).
	telTx *telemetry.Counter
}

type message struct {
	bytes int64
	data  []float32
	seq   uint64
	tag   trace.FlowTag
	// txStart is when an intra-host transfer entered its channel.
	txStart sim.Time
}

// The stages of a message are events on its Conn, told apart by the
// handler type and keyed by the message's sequence number — so when a
// fuzzing Picker reorders two same-instant events of one connection, each
// still acts on its own message.
type (
	connTransmit  Conn // the TS gate (or a send perturbation) opened
	connIntraDone Conn // an intra-host transfer left its channel
	connFlowDone  Conn // the fabric flow completed
	connDeliver   Conn // the delivery latency elapsed
)

func (h *connTransmit) OnEvent(seq uint64)  { (*Conn)(h).transmit(seq) }
func (h *connIntraDone) OnEvent(seq uint64) { (*Conn)(h).intraDone(seq) }
func (h *connFlowDone) OnEvent(seq uint64)  { (*Conn)(h).sent(seq, NetLatency) }
func (h *connDeliver) OnEvent(seq uint64)   { (*Conn)(h).deliver(seq) }

// inFlight returns the index of in-flight message seq in c.msgs. With
// serialized sends the search is short: one message is being transmitted
// and a few are inside their delivery latency.
func (c *Conn) inFlight(seq uint64) int {
	for i := 0; ; i++ {
		if c.msgs.At(i).seq == seq {
			return i
		}
	}
}

// Connect creates a connection from srcNIC (on this engine's host) to
// dstNIC. routeIdx picks among the equal-cost paths (spec.RouteECMP to let
// ECMP hash by label). The connection is intra-host if both NICs share a
// host; its traffic then never touches the fabric.
func (e *Engine) Connect(app spec.AppID, src, dst topo.NICID, routeIdx int, label uint64) (*Conn, error) {
	if e.cluster.NICs[src].Host != e.host {
		return nil, fmt.Errorf("transport: source NIC %d is not on host %d", src, e.host)
	}
	c := &Conn{
		eng: e, app: app, src: src, dst: dst,
		intr:  e.cluster.NICs[src].Host == e.cluster.NICs[dst].Host,
		label: label,
		gate:  e.Gate(app),
	}
	if !c.intr {
		if err := c.setRoute(routeIdx); err != nil {
			return nil, err
		}
	}
	return c, nil
}

func (c *Conn) setRoute(routeIdx int) error {
	if routeIdx == spec.RouteECMP {
		c.route = nil
		return nil
	}
	paths := c.eng.cluster.PathsBetweenNICs(c.src, c.dst)
	if len(paths) == 0 {
		return fmt.Errorf("transport: no path between NICs %d and %d", c.src, c.dst)
	}
	c.route = paths[routeIdx%len(paths)]
	return nil
}

// SetRoute re-pins the connection to another equal-cost path. Future sends
// use the new route; in-flight flows are unaffected. This is the immediate
// (non-barrier) route update used by FFA/PFA pushes.
func (c *Conn) SetRoute(routeIdx int) error {
	if c.intr {
		return nil
	}
	return c.setRoute(routeIdx)
}

// CurrentPath returns the fabric links this connection's messages traverse
// right now: the pinned route, or the deterministic ECMP choice for its
// label. Intra-host connections return nil. The remediation engine uses
// this to map observed link load back to communicator connections.
func (c *Conn) CurrentPath() []netsim.LinkID {
	if c.intr {
		return nil
	}
	if c.route != nil {
		return c.route
	}
	src := c.eng.cluster.NICNode(c.src)
	dst := c.eng.cluster.NICNode(c.dst)
	paths := c.eng.cluster.Net.PathsBetween(src, dst)
	if len(paths) == 0 {
		return nil
	}
	return paths[netsim.ECMPIndex(src, dst, c.label, len(paths))]
}

// PathCount returns the number of equal-cost paths available to this
// connection (1 for intra-host).
func (c *Conn) PathCount() int {
	if c.intr {
		return 1
	}
	return len(c.eng.cluster.PathsBetweenNICs(c.src, c.dst))
}

// Close tears the connection down: further sends panic. Deliveries already
// in flight still arrive, so a receiver draining its inbox cannot deadlock
// on a racing teardown (the reconfiguration protocol additionally barriers
// before closing, so in practice nothing is in flight here).
func (c *Conn) Close() { c.closed = true }

// Send transmits bytes (with optional data snapshot) to the peer. It is
// asynchronous; the receiver's Recv unblocks once the transfer completes.
// tag, if non-nil, is copied into the message as its flight-recorder tag,
// identifying the collective step it carries; the tag rides the fabric flow
// into the trace so bottleneck attribution can join network behaviour back
// to collectives. Nil marks untagged traffic.
func (c *Conn) Send(bytes int64, data []float32, tag *trace.FlowTag) {
	if c.closed {
		panic("transport: send on closed connection")
	}
	if bytes <= 0 {
		panic(fmt.Sprintf("transport: send of %d bytes", bytes))
	}
	c.sendSeq++
	c.eng.telMessages.Inc()
	if c.telTx == nil && c.eng.telReg != nil {
		c.telTx = c.eng.txCounter(c.app)
	}
	c.telTx.Add(bytes)
	msg := c.msgs.Grow()
	msg.bytes, msg.data, msg.seq = bytes, data, c.sendSeq
	if tag != nil {
		msg.tag = *tag
	}
	if c.eng.cfg.UnserializedSends {
		// Ablation mode: transmit everything concurrently.
		for c.started < c.msgs.Len() {
			c.startNext()
		}
		return
	}
	if !c.sending {
		c.startNext()
	}
}

// startNext puts the first queued message in flight and transmits it,
// respecting the app's TS traffic gate at each message start.
func (c *Conn) startNext() {
	c.sending = c.started < c.msgs.Len()
	if !c.sending {
		return
	}
	msg := c.msgs.At(c.started)
	c.started++
	e := c.eng

	// TS gating: traffic may only start inside the app's allowed windows.
	now := e.s.Now()
	at := c.gate.NextAllowed(now)
	if e.perturb != nil {
		if d := e.perturb(msg.bytes); d > 0 {
			if at < now {
				at = now
			}
			at = at.Add(d)
		}
	}
	if at <= now {
		c.put(msg)
	} else {
		e.s.AtCall(at, (*connTransmit)(c), msg.seq)
	}
}

// transmit puts message seq on its channel once the gate has opened.
func (c *Conn) transmit(seq uint64) { c.put(c.msgs.At(c.inFlight(seq))) }

// put puts an in-flight message on its channel.
func (c *Conn) put(msg *message) {
	e := c.eng
	if c.intr {
		// Intra-host channel: fixed bandwidth, no fabric contention
		// (host shared-memory / NVLink is private to the host).
		msg.txStart = e.s.Now()
		dur := time.Duration(float64(msg.bytes) / e.cfg.IntraBps * float64(time.Second))
		e.s.AfterCall(dur, (*connIntraDone)(c), msg.seq)
		return
	}
	e.fabric.Send(&netsim.FlowOpts{
		Src:   e.cluster.NICNode(c.src),
		Dst:   e.cluster.NICNode(c.dst),
		Bytes: float64(msg.bytes),
		Route: c.route,
		// The label is per-connection, not per-message: an RDMA
		// connection keeps one 5-tuple, so ECMP pins all its
		// messages to one path. That stickiness is what makes
		// collisions persistent — and what MCCS route pinning fixes.
		Label:  c.label,
		Tag:    msg.tag,
		OnDone: (*connFlowDone)(c), OnDoneArg: msg.seq,
	})
}

// intraDone records the finished intra-host transfer of message seq.
func (c *Conn) intraDone(seq uint64) {
	e := c.eng
	if rec := trace.Of(e.s); rec.Enabled(trace.KindXfer) {
		msg := c.msgs.At(c.inFlight(seq))
		rec.Emit(trace.Span{
			Kind: trace.KindXfer, Op: msg.tag.Op,
			Start: msg.txStart, End: e.s.Now(),
			Host: int32(e.host), GPU: -1,
			Comm: msg.tag.Comm, Rank: msg.tag.From, Peer: msg.tag.To,
			Channel: msg.tag.Channel, Gen: msg.tag.Gen, Step: msg.tag.Step,
			Seq:   msg.tag.Seq,
			Bytes: msg.bytes,
			Src:   int32(c.src), Dst: int32(c.dst),
		})
	}
	c.sent(seq, IntraLatency)
}

// sent runs when message seq has left its channel: the receiver sees it
// one latency later, and the connection is free for the next message.
func (c *Conn) sent(seq uint64, latency time.Duration) {
	c.eng.s.AfterCall(latency, (*connDeliver)(c), seq)
	c.startNext()
}

// deliver takes message seq out of flight and hands it to the receiver.
func (c *Conn) deliver(seq uint64) {
	i := c.inFlight(seq)
	msg := c.msgs.At(i)
	d := Delivery{Data: msg.data, Seq: msg.seq}
	// Messages almost always leave flight in order, from the head; one
	// that a reordered same-instant delivery overtook has the head moved
	// into its place. The queued messages behind the in-flight ones keep
	// their order either way.
	if i > 0 {
		*msg = *c.msgs.At(0)
	}
	c.msgs.DropHead()
	c.started--
	c.inbox.Push(c.eng.s, d)
}

// TryRecv returns the next delivery on the connection, in send order, if
// it has arrived. It is the one place deliveries are re-sequenced; Recv is
// TryRecv in a loop around a blocking wait, and a step function (the
// proxy's schedule interpreter) calls TryRecv and, when it reports false,
// ParkRecv.
//
// Delivery events for back-to-back tiny messages can land at the same
// virtual instant (sub-nanosecond transmit times truncate to zero), and
// the scheduler is free to fire same-instant events in any order — the
// chaos harness's schedule fuzzer exercises exactly that freedom. A real
// connection (RDMA QP, TCP) still delivers in order, so TryRecv
// re-sequences by message sequence number instead of trusting event order.
func (c *Conn) TryRecv() (Delivery, bool) {
	for {
		if len(c.stash) > 0 {
			if d, ok := c.stash[c.recvSeq+1]; ok {
				delete(c.stash, c.recvSeq+1)
				c.recvSeq++
				return d, true
			}
		}
		if c.inbox.Len() == 0 {
			// The common miss: a receiver that got here before the sender.
			return Delivery{}, false
		}
		d, _ := c.inbox.TryPop()
		if d.Seq == c.recvSeq+1 {
			c.recvSeq++
			return d, true
		}
		if c.stash == nil {
			c.stash = make(map[uint64]Delivery)
		}
		c.stash[d.Seq] = d
		// A stashed delivery is the simulation's analogue of an
		// out-of-order arrival the receiver had to re-sequence — the
		// "retries" signal of a real transport.
		c.eng.telOOO.Inc()
	}
}

// ParkRecv parks p, without blocking, until the next delivery of any
// sequence number arrives (see sim.Queue.Park); the woken step function
// calls TryRecv again.
func (c *Conn) ParkRecv(p *sim.Proc) { c.inbox.Park(p) }

// Recv blocks until the next delivery on the connection, in send order.
func (c *Conn) Recv(p *sim.Proc) Delivery {
	for {
		if d, ok := c.TryRecv(); ok {
			return d
		}
		c.inbox.Wait(p)
	}
}

// Pending returns the number of messages sent on the connection and not
// yet received: queued behind the one being transmitted, in flight, waiting
// in the inbox, or stashed for re-sequencing. Once the scheduler has
// drained, a nonzero count is a message nobody received.
func (c *Conn) Pending() int { return c.msgs.Len() + c.inbox.Len() + len(c.stash) }
