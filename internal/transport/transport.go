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

// Config sets the transport cost model.
type Config struct {
	// NetLatency is the fixed per-message inter-host latency (RDMA op
	// issue + propagation), added after the flow completes.
	NetLatency time.Duration
	// IntraLatency is the per-message latency of intra-host channels.
	IntraLatency time.Duration
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

// DefaultConfig mirrors the paper's testbed datapath constants.
func DefaultConfig(intraBps float64) Config {
	return Config{
		NetLatency:   6 * time.Microsecond,
		IntraLatency: 3 * time.Microsecond,
		IntraBps:     intraBps,
	}
}

// Delivery is one received message.
type Delivery struct {
	Bytes int64
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
	if cfg.IntraBps <= 0 {
		cfg.IntraBps = cluster.IntraHostBps
	}
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

	inbox   *sim.Queue[Delivery]
	sendSeq uint64
	closed  bool

	// recvSeq/stash re-sequence deliveries whose completion events fired
	// out of order (see TryRecv).
	recvSeq uint64
	stash   map[uint64]Delivery

	// sendQ serializes messages: a real connection (RDMA QP) transmits
	// one message at a time in order. Without this, concurrent slices
	// of one connection would processor-share the path and complete in
	// a cluster, destroying the slice-level pipelining the collective
	// engine depends on.
	//
	// A message moves from sendQ to flight when its turn comes and stays
	// there — through the TS gate, the wire and the delivery latency —
	// until it is pushed to the inbox. Every event on the way carries only
	// the message's sequence number (see the conn* handlers), so the
	// message path allocates no closures; flight holds the message being
	// transmitted plus the few still inside their delivery latency.
	sendQ   sim.Ring[message]
	flight  sim.Ring[message]
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
func (h *connFlowDone) OnEvent(seq uint64)  { (*Conn)(h).sent(seq, (*Conn)(h).eng.cfg.NetLatency) }
func (h *connDeliver) OnEvent(seq uint64)   { (*Conn)(h).deliver(seq) }

// inFlight returns message seq in c.flight (valid until the ring changes).
func (c *Conn) inFlight(seq uint64) *message {
	for i := 0; ; i++ {
		if msg := c.flight.At(i); msg.seq == seq {
			return msg
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
		inbox: sim.NewQueue[Delivery](),
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

// Intra reports whether this is an intra-host connection.
func (c *Conn) Intra() bool { return c.intr }

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
	msg := message{bytes: bytes, data: data, seq: c.sendSeq}
	if tag != nil {
		msg.tag = *tag
	}
	c.sendQ.Push(msg)
	if c.eng.cfg.UnserializedSends {
		// Ablation mode: transmit everything concurrently.
		for c.sendQ.Len() > 0 {
			c.startNext()
		}
		return
	}
	if !c.sending {
		c.startNext()
	}
}

// startNext moves the head of the send queue into flight and transmits it,
// respecting the app's TS traffic gate at each message start.
func (c *Conn) startNext() {
	msg, ok := c.sendQ.Pop()
	c.sending = ok
	if !ok {
		return
	}
	c.flight.Push(msg)
	e := c.eng

	// TS gating: traffic may only start inside the app's allowed windows.
	now := e.s.Now()
	at := e.Gate(c.app).NextAllowed(now)
	if e.perturb != nil {
		if d := e.perturb(msg.bytes); d > 0 {
			if at < now {
				at = now
			}
			at = at.Add(d)
		}
	}
	if at <= now {
		c.transmit(msg.seq)
	} else {
		e.s.AtCall(at, (*connTransmit)(c), msg.seq)
	}
}

// transmit puts message seq on its channel.
func (c *Conn) transmit(seq uint64) {
	e := c.eng
	msg := c.inFlight(seq)
	if c.intr {
		// Intra-host channel: fixed bandwidth, no fabric contention
		// (host shared-memory / NVLink is private to the host).
		msg.txStart = e.s.Now()
		dur := time.Duration(float64(msg.bytes) / e.cfg.IntraBps * float64(time.Second))
		e.s.AfterCall(dur, (*connIntraDone)(c), seq)
		return
	}
	e.fabric.Send(netsim.FlowOpts{
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
		OnDone: (*connFlowDone)(c), OnDoneArg: seq,
	})
}

// intraDone records the finished intra-host transfer of message seq.
func (c *Conn) intraDone(seq uint64) {
	e := c.eng
	if rec := trace.Of(e.s); rec.Enabled(trace.KindXfer) {
		msg := c.inFlight(seq)
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
	c.sent(seq, e.cfg.IntraLatency)
}

// sent runs when message seq has left its channel: the receiver sees it
// one latency later, and the connection is free for the next message.
func (c *Conn) sent(seq uint64, latency time.Duration) {
	c.eng.s.AfterCall(latency, (*connDeliver)(c), seq)
	c.startNext()
}

// deliver takes message seq out of flight and hands it to the receiver.
func (c *Conn) deliver(seq uint64) {
	msg := c.inFlight(seq)
	d := Delivery{Bytes: msg.bytes, Data: msg.data, Seq: msg.seq}
	// Messages almost always leave flight in order; one overtaken by a
	// reordered same-instant delivery has the head moved into its place.
	*msg = *c.flight.At(0)
	c.flight.Pop()
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
		if d, ok := c.stash[c.recvSeq+1]; ok {
			delete(c.stash, c.recvSeq+1)
			c.recvSeq++
			return d, true
		}
		d, ok := c.inbox.TryPop()
		if !ok {
			return Delivery{}, false
		}
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

// Pending returns the number of undelivered messages queued on the
// connection.
func (c *Conn) Pending() int { return c.inbox.Len() + len(c.stash) }
