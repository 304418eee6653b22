package netsim

import (
	"fmt"
	"math"
	"time"

	"mccs/internal/sim"
	"mccs/internal/telemetry"
	"mccs/internal/trace"
)

// completion tolerance, in bytes: a flow with this much or less remaining
// is considered finished (guards against float rounding).
const byteEps = 0.5

// Flow is one active transfer on the fabric.
type Flow struct {
	ID       int
	Src, Dst NodeID
	Route    []LinkID

	// Tag identifies the collective step this flow carries, for the
	// flight recorder (zero for untagged/external traffic).
	Tag trace.FlowTag

	fb *Fabric
	// slot is the flow's index in Fabric.flows (dense, maintained
	// incrementally). The allocator's scratch buffers are indexed by
	// slot, so a recompute allocates nothing per flow.
	slot int

	bytes    float64 // total demand; +Inf for endless (background) flows
	done     float64
	rate     float64 // current allocated rate, bytes/sec
	maxRate  float64 // 0 = uncapped
	priority bool    // strict-priority flow, allocated before fair sharing
	external bool    // traffic outside the service's management
	// owned marks a flow started by Send: no handle ever left the fabric,
	// so onTimer returns it to the free list after its completion callback.
	owned bool
	// spec is the flow's interned (route, maxRate, priority) ID, assigned
	// on first use by specOf; 0 means not interned yet. (It sits with the
	// flags above in what was padding: Flow stays in its size class.)
	spec uint32

	onDone   sim.Handler // FlowOpts.OnDone
	doneArg  uint64
	finished bool
	canceled bool

	// Flight-recorder state: when the flow started, its rate history
	// (appended only while a LevelFull recorder is attached), and
	// whether its span has already been emitted.
	start     sim.Time
	samples   []trace.RateSample
	traceDone bool
}

// FlowOpts configures StartFlow.
type FlowOpts struct {
	Src, Dst NodeID
	// Bytes is the transfer size; <= 0 means endless (a background flow
	// that runs until canceled).
	Bytes float64
	// Route pins the flow to an explicit path. If nil, the fabric applies
	// ECMP over the shortest paths using Label.
	Route []LinkID
	// Label distinguishes connections between the same endpoints for ECMP
	// hashing (the 5-tuple port analogue).
	Label uint64
	// MaxRate caps the flow's rate in bytes/sec (0 = uncapped). The flow
	// still competes fairly below the cap.
	MaxRate float64
	// FixedRate makes this a strict-priority flow: it is allocated
	// min(FixedRate, capacity) before fair sharing, squeezing normal
	// flows onto the residual. This models traffic outside the
	// simulated service's control (the paper's 75 Gbps background flow).
	FixedRate float64
	// External marks traffic not managed by the collective service
	// (background flows, other tenants' non-collective traffic). The
	// fabric accounts it separately so a monitoring agent can detect
	// "persistent large flows that are not managed by MCCS" (§6.2).
	External bool
	// Tag labels the flow with the collective step it carries, for the
	// flight recorder.
	Tag trace.FlowTag
	// OnDone, if non-nil, has OnDone.OnEvent(OnDoneArg) called (in
	// scheduler context) when the flow completes normally: the one way a
	// flow reports completion. A receiver plus an argument instead of a
	// closure: the transport starts a flow per message.
	OnDone    sim.Handler
	OnDoneArg uint64
}

// Counters are the fabric's plain event counts. They are not telemetry
// families: reading them costs nothing and no export format carries them.
type Counters struct {
	// Recomputes counts rate allocations. With coalescing this counts
	// flushes, not mutations: a batch of K same-instant flow starts
	// increments it exactly once, whether the allocation was solved or
	// answered from the memo.
	Recomputes int
	// Fills counts water-fill passes: one per solved allocation, two when a
	// strict-priority flow is active, none for a memo hit.
	Fills int
	// MemoHits and MemoMisses split the recomputes whose flow set was small
	// enough to memoise (see memo.go) into those answered from the table
	// and those solved and stored; the rest of Recomputes bypassed it or
	// found no flows. MemoEntries is the number of allocations currently
	// stored.
	MemoHits, MemoMisses, MemoEntries int
	// FlowsRecycled counts flows started by Send that came off the free
	// list instead of the heap.
	FlowsRecycled int
}

// Fabric is the dynamic state of the network: the set of active flows and
// their max-min fair rates. All methods must be called from sim scheduler
// context.
//
// Mutations (StartFlow, CancelFlow, SetLinkCapacity, completions) do not
// recompute rates eagerly; they mark the fabric dirty and the whole batch
// is allocated once — at the latest when the scheduler leaves the current
// virtual instant (see sim.Scheduler.OnInstantEnd), and earlier if any
// rate, link-rate or byte counter is read. A ring step that launches N
// flows at one instant therefore costs a single max-min allocation, not N.
type Fabric struct {
	s   *sim.Scheduler
	net *Network

	// flows holds the active flows in ascending flow-ID order; a flow's
	// slot field is its index here. IDs are monotonic, so StartFlow
	// appends and removal splices — the order is maintained
	// incrementally instead of being rebuilt and sorted per allocation.
	flows      []*Flow
	nPriority  int // active strict-priority flows
	nextFlowID int

	// dirty marks a pending coalesced recompute; flush clears it.
	dirty bool

	lastUpdate sim.Time
	timer      sim.Timer
	onTimerFn  func() // fb.onTimer, bound once so arming the timer allocates nothing

	// linkRate[l] is the aggregate allocated rate on link l and
	// externalRate[l] the portion from flows marked External, for
	// monitoring queries. No allocation writes them: the first read after
	// one (LinkRate, ExternalRate, LinkUtilization, or the flight
	// recorder's sampleRates) sums them while sumsStale is set. Both are
	// zero on every link no active flow crosses: remove zeroes a departing
	// flow's route.
	linkRate     []float64
	externalRate []float64
	sumsStale    bool

	// Counters are plain event counts, for tests and perf sanity.
	Counters

	// Telemetry handles, cached at construction; nil (and therefore
	// no-ops) when no registry is attached to the scheduler.
	telStarted    *telemetry.Counter
	telCompleted  *telemetry.Counter
	telCanceled   *telemetry.Counter
	telRecomputes *telemetry.Counter

	// Allocator scratch, owned by the fabric and reused across
	// recomputes so the steady-state hot path allocates nothing.
	// Per-slot buffers (indexed by Flow.slot):
	frozenRate []float64 // rate a flow was frozen at this pass
	frozenSet  []bool    // whether the flow is frozen
	bott       []LinkID  // committed bottleneck link, for the recorder
	fillRate   []float64 // current water-fill: resulting rate
	fillBneck  []LinkID  // current water-fill: saturating link
	fillLevel  []float64 // current water-fill: rising water level
	fillDone   []bool    // current water-fill: flow stopped rising
	// Flow/link scratch:
	active    []*Flow   // water-fill participant list
	remCap    []float64 // per-link remaining capacity; valid on touched links only
	nActive   []int     // per-link count of unfrozen crossing flows
	linkMark  []bool    // per-link membership in touched
	touched   []LinkID  // links crossed by any active flow
	completed []*Flow   // completion batch, reused by onTimer

	memo allocMemo
	// free holds finished Send flows, reset, for the next Send to reuse.
	free []*Flow
}

// NewFabric creates a fabric over the given topology and registers its
// end-of-instant flush with the scheduler.
func NewFabric(s *sim.Scheduler, net *Network) *Fabric {
	fb := &Fabric{
		s:            s,
		net:          net,
		linkRate:     make([]float64, net.NumLinks()),
		externalRate: make([]float64, net.NumLinks()),
		remCap:       make([]float64, net.NumLinks()),
		nActive:      make([]int, net.NumLinks()),
		linkMark:     make([]bool, net.NumLinks()),
	}
	fb.onTimerFn = fb.onTimer
	reg := telemetry.Of(s)
	fb.telStarted = reg.Counter("mccs_fabric_flows_started_total", "flows")
	fb.telCompleted = reg.Counter("mccs_fabric_flows_completed_total", "flows")
	fb.telCanceled = reg.Counter("mccs_fabric_flows_canceled_total", "flows")
	fb.telRecomputes = reg.Counter("mccs_fabric_recomputes_total", "allocations")
	s.OnInstantEnd(fb.flush)
	return fb
}

// StartFlow begins a transfer and returns its handle. The route is
// validated; an invalid explicit route panics, as it indicates a programming
// error in the routing layer.
//
// The new flow's rate is computed lazily: starting K flows at one virtual
// instant costs one allocation, performed before the first rate read or
// the end of the instant, whichever comes first.
func (fb *Fabric) StartFlow(o FlowOpts) *Flow { return fb.start(&o, false) }

// Send is StartFlow for a caller that does not want the handle (the
// transport, once per message: it learns of completion through
// FlowOpts.OnDone). Because no handle leaves the fabric, the Flow is the
// fabric's to reuse: it comes from a per-fabric free list and goes back,
// with every field reset, once its OnDone callback has returned. A handle
// StartFlow returned is never recycled. The options are read, not kept, so
// a caller may pass the address of a value on its own stack.
func (fb *Fabric) Send(o *FlowOpts) { fb.start(o, true) }

func (fb *Fabric) start(o *FlowOpts, owned bool) *Flow {
	route := o.Route
	if route == nil {
		paths := fb.net.PathsBetween(o.Src, o.Dst)
		if len(paths) == 0 {
			panic(fmt.Sprintf("netsim: no path %s -> %s", fb.net.NodeName(o.Src), fb.net.NodeName(o.Dst)))
		}
		route = paths[ECMPIndex(o.Src, o.Dst, o.Label, len(paths))]
	}
	if err := fb.net.ValidateRoute(o.Src, o.Dst, route); err != nil {
		panic(err)
	}
	if len(route) == 0 {
		panic("netsim: zero-hop flow; intra-host transfers do not use the fabric")
	}
	bytes := o.Bytes
	if bytes <= 0 {
		bytes = math.Inf(1)
	}
	maxRate, priority := o.MaxRate, false
	if o.FixedRate > 0 {
		maxRate, priority = o.FixedRate, true
	}
	fb.progress()
	fb.nextFlowID++
	var fl *Flow
	if n := len(fb.free); owned && n > 0 {
		fl, fb.free = fb.free[n-1], fb.free[:n-1]
		fb.FlowsRecycled++
	} else {
		fl = new(Flow)
	}
	// fl is zero (new, or reset when it was recycled), so setting the
	// fields one by one leaves it exactly as a composite literal would,
	// without building the whole Flow on the stack and copying it over.
	fl.ID, fl.Src, fl.Dst, fl.Route = fb.nextFlowID, o.Src, o.Dst, route
	fl.Tag = o.Tag
	fl.fb, fl.slot = fb, len(fb.flows)
	fl.bytes, fl.maxRate, fl.priority, fl.external = bytes, maxRate, priority, o.External
	fl.owned = owned
	fl.onDone, fl.doneArg = o.OnDone, o.OnDoneArg
	fl.start = fb.s.Now()
	fb.flows = append(fb.flows, fl)
	fb.telStarted.Inc()
	if fl.priority {
		fb.nPriority++
	}
	fb.dirty = true
	return fl
}

// CancelFlow removes a flow before completion (its OnDone is not
// called). Canceling a finished or already-canceled flow is a no-op.
func (fb *Fabric) CancelFlow(fl *Flow) {
	if fl.finished || fl.canceled {
		return
	}
	fb.progress()
	fl.canceled = true
	fb.telCanceled.Inc()
	fb.emitFlow(fl, trace.Of(fb.s))
	fb.remove(fl)
	fb.dirty = true
}

// emitFlow records the flow's transmit span: its route, the bytes it
// delivered, and its full rate/bottleneck history. Each flow emits at
// most once (completion, cancellation, or FlushTrace, whichever comes
// first).
func (fb *Fabric) emitFlow(fl *Flow, rec *trace.Recorder) {
	if fl.traceDone || !rec.Enabled(trace.KindFlow) {
		return
	}
	fl.traceDone = true
	sp := trace.Span{
		Kind: trace.KindFlow, Op: fl.Tag.Op,
		Start: fl.start, End: fb.s.Now(),
		Host: -1, GPU: -1,
		Comm: fl.Tag.Comm, Rank: fl.Tag.From, Peer: fl.Tag.To,
		Channel: fl.Tag.Channel, Gen: fl.Tag.Gen, Step: fl.Tag.Step, Seq: fl.Tag.Seq,
		Flow: int64(fl.ID), Bytes: int64(fl.done),
		Src: int32(fl.Src), Dst: int32(fl.Dst),
		Route: fb.traceRoute(fl), Rates: fl.samples,
	}
	if fl.Tag.Comm == 0 {
		sp.Op, sp.Rank, sp.Peer = -1, -1, -1
	}
	if fl.external {
		sp.Label = "external"
	}
	rec.Emit(sp)
}

// FlushTrace emits transmit spans for flows still active at the current
// instant — endless background flows and any transfer in flight when
// the run ends would otherwise never appear in the trace. Flushed flows
// keep running; their spans simply close at the flush time.
func (fb *Fabric) FlushTrace() {
	rec := trace.Of(fb.s)
	if !rec.Enabled(trace.KindFlow) {
		return
	}
	fb.flush()
	fb.progress()
	for _, fl := range fb.flows {
		fb.emitFlow(fl, rec)
	}
}

// remove splices fl out of the ID-ordered flow list.
func (fb *Fabric) remove(fl *Flow) {
	i := fl.slot
	copy(fb.flows[i:], fb.flows[i+1:])
	fb.flows[len(fb.flows)-1] = nil
	fb.flows = fb.flows[:len(fb.flows)-1]
	for j := i; j < len(fb.flows); j++ {
		fb.flows[j].slot = j
	}
	if fl.priority {
		fb.nPriority--
	}
	for _, l := range fl.Route {
		fb.linkRate[l], fb.externalRate[l] = 0, 0
	}
}

// SetLinkCapacity changes a link's capacity at runtime (maintenance,
// degradation, failure when set to ~0). Reallocation is coalesced like
// any other fabric mutation.
func (fb *Fabric) SetLinkCapacity(l LinkID, capacity float64) {
	if capacity < 0 {
		capacity = 0
	}
	fb.progress()
	if fb.net.links[l].Capacity != capacity {
		fb.net.links[l].Capacity = capacity
		fb.memo.epoch++
	}
	fb.dirty = true
}

// LinkState is an exact snapshot of one link's mutable state, taken by
// SnapshotLink and restored by RestoreLink. Fault injectors snapshot a
// link immediately before degrading it and restore the snapshot on
// expiry: restoring the exact pre-fault state — instead of recomputing
// a nominal value — makes back-to-back and nested injections on the
// same link compose (the inner fault's restore re-installs the outer
// fault's degraded capacity, and the outer restore re-installs the true
// pre-fault state).
type LinkState struct {
	Link     LinkID
	Capacity float64
}

// SnapshotLink captures link l's current mutable state.
func (fb *Fabric) SnapshotLink(l LinkID) LinkState {
	return LinkState{Link: l, Capacity: fb.net.links[l].Capacity}
}

// RestoreLink re-installs a snapshot taken by SnapshotLink. A restore
// that would not change the link is a no-op (no reallocation), so
// restoring an identical state is schedule-neutral.
func (fb *Fabric) RestoreLink(st LinkState) {
	if fb.net.links[st.Link].Capacity == st.Capacity {
		return
	}
	fb.SetLinkCapacity(st.Link, st.Capacity)
}

// LinkRate returns the aggregate allocated rate on link l in bytes/sec.
func (fb *Fabric) LinkRate(l LinkID) float64 {
	fb.settleSums()
	return fb.linkRate[l]
}

// ExternalRate returns the rate on link l from flows marked External —
// the signal a provider's switch agent reports for traffic outside the
// collective service's management.
func (fb *Fabric) ExternalRate(l LinkID) float64 {
	fb.settleSums()
	return fb.externalRate[l]
}

// LinkUtilization returns allocated rate / capacity for link l.
func (fb *Fabric) LinkUtilization(l LinkID) float64 {
	fb.settleSums()
	c := fb.net.Link(l).Capacity
	if c <= 0 {
		return 0
	}
	return fb.linkRate[l] / c
}

// AllocEpoch returns a number that moves whenever the settled allocation
// may have: the active flow set, every flow rate and committed bottleneck,
// every link rate and link capacity read the same for as long as it does
// not. It is the recompute count — a recompute is the one place a batch of
// flow starts, completions, cancels and SetLinkCapacity calls takes effect
// — read, like the rates, behind the pending flush. Pollers (the telemetry
// collector) compare it to skip work under an unchanged allocation.
func (fb *Fabric) AllocEpoch() int {
	fb.flush()
	return fb.Recomputes
}

// ActiveFlows returns the number of in-flight flows.
func (fb *Fabric) ActiveFlows() int { return len(fb.flows) }

// FlowView is a read-only snapshot of one active flow for monitoring
// (the telemetry collector). Route aliases live fabric state: visitors
// must not retain or mutate it.
type FlowView struct {
	Comm       int32 // collective tag communicator; 0 for untagged
	External   bool
	Rate       float64
	Bottleneck LinkID // committed water-fill bottleneck; -1 if cap/demand-limited
	Route      []LinkID
}

// EachFlow visits the active flows in ascending flow-ID order with
// settled rates: it forces the coalesced flush first, so the committed
// bottleneck scratch is valid for every visited flow.
func (fb *Fabric) EachFlow(fn func(FlowView)) {
	fb.flush()
	for _, fl := range fb.flows {
		fn(FlowView{
			Comm: fl.Tag.Comm, External: fl.external,
			Rate: fl.rate, Bottleneck: fb.bott[fl.slot], Route: fl.Route,
		})
	}
}

// ManagedFlows returns the number of in-flight flows that are NOT marked
// External — the traffic the collective service itself put on the fabric.
// A drained simulation with managed flows remaining has leaked transfers
// (the chaos harness's quiescence invariant); external background flows
// are excluded because injectors may legitimately leave them running.
func (fb *Fabric) ManagedFlows() int {
	n := 0
	for _, fl := range fb.flows {
		if !fl.external {
			n++
		}
	}
	return n
}

// progress advances byte counters to now at current rates.
func (fb *Fabric) progress() {
	now := fb.s.Now()
	dt := now.Sub(fb.lastUpdate).Seconds()
	fb.lastUpdate = now
	if dt <= 0 {
		return
	}
	for _, fl := range fb.flows {
		fl.done += fl.rate * dt
		if fl.done > fl.bytes {
			fl.done = fl.bytes
		}
	}
}

// flush applies the pending mutation batch, if any: it recomputes max-min
// rates once for everything that changed this instant and re-arms the
// completion timer. Every user-visible read (LinkRate, ExternalRate,
// LinkUtilization, FlushTrace; the tests' Rate, Transferred and Sync)
// forces a flush, and the scheduler's end-of-instant hook forces one
// before virtual time advances — so rates are always consistent at any
// observation point and across instants, no matter how many mutations
// were batched.
func (fb *Fabric) flush() {
	if !fb.dirty {
		return
	}
	fb.dirty = false
	fb.progress()
	fb.recompute()
}

// recompute reruns the max-min allocation and reschedules the next
// completion timer. Callers must progress() first.
func (fb *Fabric) recompute() {
	fb.Recomputes++
	fb.telRecomputes.Inc()
	fb.allocate()
	fb.schedule()
}

// growScratch sizes the per-slot scratch buffers for n flows. Buffers are
// grown geometrically and reused; a steady-state recompute allocates
// nothing here.
func (fb *Fabric) growScratch(n int) {
	if cap(fb.frozenRate) < n {
		c := n + n/2 + 8
		fb.frozenRate = make([]float64, c)
		fb.frozenSet = make([]bool, c)
		fb.bott = make([]LinkID, c)
		fb.fillRate = make([]float64, c)
		fb.fillBneck = make([]LinkID, c)
		fb.fillLevel = make([]float64, c)
		fb.fillDone = make([]bool, c)
	}
	fb.frozenRate = fb.frozenRate[:n]
	fb.frozenSet = fb.frozenSet[:n]
	fb.bott = fb.bott[:n]
	fb.fillRate = fb.fillRate[:n]
	fb.fillBneck = fb.fillBneck[:n]
	fb.fillLevel = fb.fillLevel[:n]
	fb.fillDone = fb.fillDone[:n]
}

// allocate sets every active flow's rate and committed bottleneck, then
// commits them. The rates come from solve, or — for a
// small flow set seen before under the same link capacities — from the
// memo in front of it (memo.go), which hands back the very floats solve
// produced for that input.
func (fb *Fabric) allocate() {
	n := len(fb.flows)
	if n == 0 {
		return
	}
	fb.growScratch(n)
	if !fb.memoKey() {
		fb.solve()
	} else if !fb.memoLoad() {
		fb.solve()
		fb.memoStore()
	}
	fb.commit()
}

// commit marks the link-rate sums stale and samples the new rates for the
// flight recorder. The sums are left to the first read (settleSums), so an
// allocation nobody reads them after costs nothing per link.
func (fb *Fabric) commit() {
	fb.sumsStale = true
	fb.sampleRates()
}

// settleSums flushes the pending recompute, then sums the link rates if an
// allocation has run since they were last summed.
func (fb *Fabric) settleSums() {
	fb.flush()
	if fb.sumsStale {
		fb.sumLinks()
	}
}

// sumLinks accumulates the link-rate sums in flow-ID order (they are float
// accumulations; the order must be deterministic). remove zeroes a
// departing flow's route, so only the links on the active flows' routes
// can hold an old sum; those are all it zeroes first.
func (fb *Fabric) sumLinks() {
	fb.sumsStale = false
	linkRate, externalRate := fb.linkRate, fb.externalRate
	for _, fl := range fb.flows {
		for _, l := range fl.Route {
			linkRate[l], externalRate[l] = 0, 0
		}
	}
	for _, fl := range fb.flows {
		r := fl.rate
		for _, l := range fl.Route {
			linkRate[l] += r
			if fl.external {
				externalRate[l] += r
			}
		}
	}
}

// solve computes max-min fair rates under per-flow rate caps, leaving each
// flow's rate in Flow.rate and its bottleneck in fb.bott: the strict-priority
// flows are water-filled among themselves first, each capped at its fixed
// rate, and then held as background load while one fill shares the residual
// capacity among the rest. A recompute is therefore one fill, or two when a
// priority flow is active.
//
// All working state lives in fabric-owned, slot-indexed scratch buffers
// (see growScratch); referenceAllocate (oracle_test.go) is the retired
// map-based implementation, the differential-testing oracle.
func (fb *Fabric) solve() {
	n := len(fb.flows)
	for i := 0; i < n; i++ {
		fb.frozenSet[i] = false
		fb.frozenRate[i] = 0
		fb.bott[i] = -1
	}
	if fb.nPriority > 0 {
		fb.waterfill(true)
		for _, fl := range fb.flows {
			if !fl.priority {
				continue
			}
			s := fl.slot
			fb.frozenRate[s] = fb.fillRate[s]
			fb.frozenSet[s] = true
			fb.bott[s] = fb.fillBneck[s]
		}
	}
	fb.waterfill(false)
	for _, fl := range fb.flows {
		s := fl.slot
		if fb.frozenSet[s] {
			fl.rate = fb.frozenRate[s]
		} else {
			fl.rate = fb.fillRate[s]
			fb.bott[s] = fb.fillBneck[s]
		}
	}
}

// maxSamples bounds a single flow's recorded rate history; an endless
// background flow on a busy fabric would otherwise grow without bound.
const maxSamples = 512

// sampleRates appends a rate sample to every flow whose allocation
// changed, when a LevelFull recorder is attached. Flows are visited in
// ID order and each sample captures the flow's bottleneck link and that
// link's aggregate/external load, which is all the attribution pass
// needs. With coalesced recomputes a sample reflects the net effect of
// the instant's whole mutation batch; transient rates between same-
// instant mutations are never allocated, so they are never sampled.
func (fb *Fabric) sampleRates() {
	rec := trace.Of(fb.s)
	if !rec.Enabled(trace.KindFlow) {
		return
	}
	fb.sumLinks()
	now := fb.s.Now()
	for _, fl := range fb.flows {
		b := fb.bott[fl.slot]
		s := trace.RateSample{T: now, Bps: fl.rate, Bottleneck: int32(b)}
		if b >= 0 {
			s.LinkBps = fb.linkRate[b]
			s.ExtBps = fb.externalRate[b]
			s.CapBps = fb.net.links[b].Capacity
		}
		if n := len(fl.samples); n > 0 {
			last := fl.samples[n-1]
			if last.Bps == s.Bps && last.Bottleneck == s.Bottleneck &&
				last.LinkBps == s.LinkBps && last.ExtBps == s.ExtBps && last.CapBps == s.CapBps {
				continue
			}
			if n >= maxSamples {
				continue
			}
		}
		fl.samples = append(fl.samples, s)
	}
}

// waterfill runs classic progressive filling over the non-frozen flows
// (only the strict-priority ones when priorityOnly is set), treating
// frozen flows as fixed background load. Results land in the fillRate /
// fillBneck scratch: the rate for every participating flow, plus the
// link that saturated and froze it (-1 for flows stopped by their own
// rate cap or by nothing at all) — the per-fill bottleneck record the
// flight recorder samples. Slots not participating read as rate 0,
// bottleneck -1.
func (fb *Fabric) waterfill(priorityOnly bool) {
	fb.Fills++
	n := len(fb.flows)
	for i := 0; i < n; i++ {
		fb.fillRate[i] = 0
		fb.fillBneck[i] = -1
		fb.fillLevel[i] = 0
		fb.fillDone[i] = false
	}
	active := fb.active[:0]
	for _, fl := range fb.flows {
		if fb.frozenSet[fl.slot] {
			continue
		}
		if priorityOnly && !fl.priority {
			continue
		}
		active = append(active, fl)
	}

	// Only the links the participants cross are read below: seed those
	// with their capacity (read now, so a SetLinkCapacity since the last
	// fill counts) and leave the rest of remCap stale.
	remCap, nAct, mark, links := fb.remCap, fb.nActive, fb.linkMark, fb.net.links
	touched := fb.touched[:0]
	for _, fl := range active {
		for _, l := range fl.Route {
			nAct[l]++
			if !mark[l] {
				mark[l] = true
				touched = append(touched, l)
				remCap[l] = links[l].Capacity
			}
		}
	}
	// Frozen flows are fixed background load on the links they share with
	// the participants. Subtract in flow-ID order: float subtraction is
	// order-sensitive in its low bits, and this was the one map-ordered
	// (and therefore nondeterministic) accumulation in the original
	// allocator.
	for _, fl := range fb.flows {
		if !fb.frozenSet[fl.slot] {
			continue
		}
		r := fb.frozenRate[fl.slot]
		for _, l := range fl.Route {
			if !mark[l] {
				continue
			}
			remCap[l] -= r
			if remCap[l] < 0 {
				remCap[l] = 0
			}
		}
	}

	remaining := len(active)
	for remaining > 0 {
		// Smallest headroom-per-flow across loaded links, and the
		// smallest gap to a flow's rate cap.
		inc := math.Inf(1)
		for _, l := range touched {
			if nAct[l] > 0 {
				if h := remCap[l] / float64(nAct[l]); h < inc {
					inc = h
				}
			}
		}
		for _, fl := range active {
			if fb.fillDone[fl.slot] || fl.maxRate <= 0 {
				continue
			}
			if gap := fl.maxRate - fb.fillLevel[fl.slot]; gap < inc {
				inc = gap
			}
		}
		if math.IsInf(inc, 1) {
			// No constraining link or cap: should not happen since every
			// route has at least one finite link; guard anyway.
			for _, fl := range active {
				if !fb.fillDone[fl.slot] {
					fb.fillRate[fl.slot] = fb.fillLevel[fl.slot]
					fb.fillBneck[fl.slot] = -1
				}
			}
			break
		}
		if inc < 0 {
			inc = 0
		}
		for _, fl := range active {
			if !fb.fillDone[fl.slot] {
				fb.fillLevel[fl.slot] += inc
			}
		}
		for _, l := range touched {
			remCap[l] -= inc * float64(nAct[l])
			if remCap[l] < 0 {
				remCap[l] = 0
			}
		}
		// Freeze flows on saturated links and flows at their caps.
		capEps := 1e-6 // bytes/sec; far below any real link scale
		for _, fl := range active {
			s := fl.slot
			if fb.fillDone[s] {
				continue
			}
			stop := fl.maxRate > 0 && fb.fillLevel[s] >= fl.maxRate-capEps
			blink := LinkID(-1)
			if !stop {
				for _, l := range fl.Route {
					if remCap[l] <= capEps {
						stop = true
						blink = l
						break
					}
				}
			}
			if stop {
				fb.fillDone[s] = true
				fb.fillRate[s] = fb.fillLevel[s]
				fb.fillBneck[s] = blink
				remaining--
				for _, l := range fl.Route {
					nAct[l]--
				}
			}
		}
	}
	// Reset the per-link scratch so the next fill starts clean (the
	// early-break path leaves residual counts behind).
	for _, l := range touched {
		nAct[l] = 0
		mark[l] = false
	}
	fb.active = active[:0]
	fb.touched = touched[:0]
}

// schedule arms the completion timer for the earliest-finishing flow.
func (fb *Fabric) schedule() {
	fb.timer.Stop()
	fb.timer = sim.Timer{}
	next := math.Inf(1)
	for _, fl := range fb.flows {
		if fl.rate <= 0 || math.IsInf(fl.bytes, 1) {
			continue
		}
		rem := fl.bytes - fl.done
		if rem <= byteEps {
			next = 0
			break
		}
		if t := rem / fl.rate; t < next {
			next = t
		}
	}
	if math.IsInf(next, 1) {
		return
	}
	// Clamp absurd horizons (a near-zero rate) so the Duration conversion
	// cannot overflow; the timer will re-arm on the next fabric change.
	const maxHorizonSec = 1e9
	if next > maxHorizonSec {
		next = maxHorizonSec
	}
	d := time.Duration(next * float64(time.Second))
	// Never arm a zero-duration timer: with sub-nanosecond residues the
	// clock would not advance, no bytes would move, and the timer would
	// re-arm forever. One nanosecond of progress always clears residues.
	if d < time.Nanosecond {
		d = time.Nanosecond
	}
	fb.timer = fb.s.After(d, fb.onTimerFn)
}

func (fb *Fabric) onTimer() {
	fb.timer = sim.Timer{}
	fb.progress()
	completed := fb.completed[:0]
	for _, fl := range fb.flows { // already in flow-ID order
		if !math.IsInf(fl.bytes, 1) && fl.bytes-fl.done <= byteEps {
			completed = append(completed, fl)
		}
	}
	fb.completed = completed[:0] // keep grown capacity for reuse
	rec := trace.Of(fb.s)
	for _, fl := range completed {
		fl.done = fl.bytes
		fl.finished = true
		fb.telCompleted.Inc()
		fb.emitFlow(fl, rec)
		fb.remove(fl)
	}
	// Flush before signaling so that completion handlers that
	// immediately start new flows observe a clean, consistent fabric.
	fb.dirty = true
	fb.flush()
	for _, fl := range completed {
		if fl.onDone != nil {
			fl.onDone.OnEvent(fl.doneArg)
		}
		if fl.owned {
			// Reset by assignment, not truncation: the emitted span keeps
			// the samples' backing array.
			*fl = Flow{}
			fb.free = append(fb.free, fl)
		}
	}
}
