// Package trace is the cross-layer flight recorder.
//
// Every layer of the stack — the mccsd frontend (command round-trips),
// the proxy (collective lifecycle, per-step transfers, reconfiguration
// barrier phases), the transport and fabric (per-flow transmits with
// route and max-min rate history), and the GPU simulator (kernels) —
// emits structured spans into one Recorder attached to the simulation
// scheduler. A post-processor (attrib.go, `mccs trace`) can then
// answer "which fabric link gated this collective, and how much of that
// was competing-tenant traffic?" for any op in the run.
//
// Design constraints:
//
//   - Near-zero overhead when disabled: Emit on a nil or off Recorder is
//     a branch and a return; spans are value structs so the hot path
//     allocates nothing. Expensive span payloads (routes, rate samples)
//     are built only behind Enabled checks.
//   - Bounded memory, paid as it fills: spans land in a fixed-capacity
//     ring whose storage is allocated a chunk at a time as spans arrive;
//     once full, the oldest spans are overwritten and counted as dropped.
//   - Deterministic: recording and export introduce no map-order or
//     wall-clock dependence, so the same seed produces a byte-identical
//     trace file — traces double as chaos-replay artifacts.
package trace

import (
	"hash/fnv"
	"math"

	"mccs/internal/freelist"
	"mccs/internal/sim"
)

// Level selects how much the recorder keeps.
type Level int32

const (
	// LevelOff records nothing.
	LevelOff Level = iota
	// LevelFull records every span kind.
	LevelFull
)

// Kind classifies a span.
type Kind uint8

const (
	// KindOp is one collective executed by one proxy runner, from issue
	// reaching the proxy to rank-local completion.
	KindOp Kind = iota
	// KindStep is one non-idle schedule step of a collective on one
	// channel, whatever the algorithm.
	KindStep
	// KindBarrier is one phase of the Fig. 4 reconfiguration barrier;
	// Span.Op holds the Phase* code.
	KindBarrier
	// KindP2P is a point-to-point send or receive.
	KindP2P
	// KindCmd is a shim command-queue round-trip: tenant issues the
	// collective, the service reports completion.
	KindCmd
	// KindFlow is one fabric transfer, with the route taken and the
	// max-min rate over time.
	KindFlow
	// KindXfer is an intra-host (NVLink-class) transfer that never
	// touched the fabric.
	KindXfer
	// KindKernel is a simulated GPU kernel on one stream.
	KindKernel
	// KindTuner is one strategy-autotuning decision: candidate scoring
	// spans (Label = candidate name, Flow = predicted nanoseconds) and
	// the install/achieved records the tuner emits so traces show why a
	// strategy was picked.
	KindTuner
	// KindSched is one orchestrator scheduling event: a job's wait in
	// the admission queue, its running interval on its placement, an
	// admission rejection, or a churn-triggered policy recompute.
	// Span.Op holds the Sched* code, Seq the job ID (0 for recomputes)
	// and Label the tenant (or the churn cause for recomputes).
	KindSched
	// KindRemediation is one self-healing control-loop event: a link
	// quarantine or re-admission, or a recovery action (route re-pin,
	// ring reversal, re-tune, graceful degradation, FFA re-run) driven
	// by the remediation engine. Span.Op holds the Remed* code, Src the
	// quarantined link ID (-1 n/a), Comm the remediated communicator (0
	// n/a) and Label the printable event name.
	KindRemediation
)

var kindNames = [...]string{"op", "step", "barrier", "p2p", "cmd", "flow", "xfer", "kernel", "tuner", "sched", "remediation"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "?"
}

// Reconfiguration barrier phase codes (Span.Op for KindBarrier), in
// protocol order.
const (
	PhaseSeqExchange int32 = iota // agree on the barrier sequence number
	PhaseDrain                    // run queued ops up to the barrier seq
	PhaseCompletion               // wait for all ranks to go idle
	PhaseTeardown                 // close old-generation connections
	PhaseRebuild                  // set up new-generation connections
)

var phaseNames = [...]string{"seq-exchange", "drain", "completion-barrier", "teardown", "rebuild"}

// PhaseName returns the printable name of a barrier phase code.
func PhaseName(code int32) string {
	if code >= 0 && int(code) < len(phaseNames) {
		return phaseNames[code]
	}
	return "?"
}

// Orchestrator scheduling event codes (Span.Op for KindSched), in job
// lifecycle order.
const (
	SchedQueue    int32 = iota // waiting in the admission queue
	SchedRun                   // running on its placement
	SchedReject                // admission rejected (instant span)
	SchedReconfig              // churn-triggered policy recompute
)

var schedNames = [...]string{"queue", "run", "reject", "reconfig"}

// SchedName returns the printable name of a scheduling event code.
func SchedName(code int32) string {
	if code >= 0 && int(code) < len(schedNames) {
		return schedNames[code]
	}
	return "?"
}

// Self-healing control-loop event codes (Span.Op for KindRemediation):
// link state-machine transitions first, then the escalation ladder's
// recovery actions in escalation order.
const (
	RemedQuarantine int32 = iota // link quarantined after persistent degradation
	RemedReadmit                 // link re-admitted after probation
	RemedRepin                   // routes re-pinned off quarantined links
	RemedReverse                 // ring reversed (no clean alternate path)
	RemedRetune                  // autotuner re-run against the degraded fabric
	RemedDegrade                 // graceful degradation to a reduced-channel strategy
	RemedFFA                     // fair flow assignment re-applied
)

var remedNames = [...]string{"quarantine", "readmit", "repin", "reverse", "retune", "degrade", "ffa"}

// RemedName returns the printable name of a remediation event code.
func RemedName(code int32) string {
	if code >= 0 && int(code) < len(remedNames) {
		return remedNames[code]
	}
	return "?"
}

// FlowTag identifies which collective step a fabric flow carries. The
// proxy attaches it at Send time; the fabric copies it onto the flow
// span, which is what lets attribution join network behaviour back to
// collectives. The zero tag means "untagged" (Comm 0 is never a real
// communicator).
type FlowTag struct {
	Comm     int32
	From, To int32
	Channel  int32
	Gen      int32
	Step     int32
	Op       int32
	Seq      uint64
}

// RateSample is one point of a flow's allocated-rate history, captured
// when the fabric recomputes max-min rates and this flow's share
// changed. Bottleneck is the link that froze the flow in that
// water-fill (-1 when the flow was capped or unconstrained), and
// LinkBps/ExtBps/CapBps describe that link's total allocated, external
// (unmanaged) and capacity rates at the same instant.
type RateSample struct {
	T          sim.Time
	Bps        float64
	Bottleneck int32
	LinkBps    float64
	ExtBps     float64
	CapBps     float64
}

// Span is one recorded interval. It is a value type: emitters build it
// on the stack and the recorder copies it into the ring. Identity
// fields use -1 for "not applicable" except Comm, where 0 is the
// unassigned value (real communicator IDs start at 1).
type Span struct {
	Kind  Kind
	Op    int32 // collective.Op, barrier Phase*, or -1
	Start sim.Time
	End   sim.Time

	// Busy is the portion of the span the emitting rank spent in local
	// GPU work (recv processing, reductions) rather than blocked on
	// peers or the fabric. Set for KindStep; zero elsewhere. A slow GPU
	// stretches Busy by exactly its slowdown factor while network
	// faults leave it untouched, which is what lets the diagnosis
	// engine separate slow-GPU from congested-link root causes.
	Busy sim.Duration

	Host    int32 // -1 when resolvable from GPU/Src via Meta
	GPU     int32
	Comm    int32
	Rank    int32
	Peer    int32
	Channel int32
	Gen     int32
	Step    int32
	Seq     uint64

	Flow  int64 // fabric flow ID (KindFlow), GPU stream ID (KindKernel)
	Bytes int64

	// Src/Dst are fabric node IDs (KindFlow) or NIC IDs (KindXfer).
	Src, Dst int32

	// Label must reference an already-live string (op names, app IDs,
	// "external") so emitting it never allocates.
	Label string

	Route []int32
	Rates []RateSample
}

// Dur returns the span's duration.
func (sp *Span) Dur() sim.Duration { return sp.End.Sub(sp.Start) }

// LinkMeta names one fabric link for attribution output.
type LinkMeta struct {
	Name   string
	CapBps float64
}

// Meta is the side-band topology registered by the deployment so the
// exporter and attributor can resolve IDs to names without importing
// the topology packages.
type Meta struct {
	Hosts     []string
	GPUHost   []int32 // GPU ID -> host index, -1 unknown
	NodeHost  []int32 // fabric node -> host index, -1 for switches
	NodeNames []string
	Links     []LinkMeta
	CommApp   map[int32]string // communicator -> owning app
}

// DefaultCapacity is the ring size used when callers do not choose one:
// large enough to hold a full Fig. 7 reconfiguration showcase at
// LevelFull.
const DefaultCapacity = 1 << 18

// One storage chunk of a Recorder holds chunkSpans spans — a power of
// two, so a ring position splits into chunk and offset with a shift and a
// mask.
const (
	chunkShift = 10
	chunkSpans = 1 << chunkShift
)

// Recorder is a fixed-capacity ring of spans whose storage grows as it
// fills: the ring is a table of chunkSpans-sized chunks, each taken when
// the first span lands in it and never moved or copied afterwards, so a
// recorder costs what it has recorded (rounded up to a chunk), not what it
// could record. Once capacity spans are held the ring wraps in place like a
// flat one. A full-size chunk comes from the chunk store (SetStore) when a
// released recorder left one there, and is allocated otherwise; Release
// hands the recorder's chunks back once its run is over. All methods are
// safe on a nil receiver (no-ops / zero values), which is what makes
// "disabled" free at the emit sites.
type Recorder struct {
	level    Level
	capacity int
	chunks   [][]Span // position p lives at chunks[p>>chunkShift][p&(chunkSpans-1)]
	n        int      // spans held, <= capacity
	head     int      // position of the oldest span once the ring has wrapped
	total    uint64   // spans ever emitted (kept + dropped)
	tap      func(*Span)
	meta     Meta
	store    *freelist.List[Span] // full-size chunks come from and go back to it; nil recycles none
}

// NewRecorder returns a recorder keeping at most capacity spans at the
// given level. capacity <= 0 selects DefaultCapacity. Only the chunk table
// is allocated here (one slice header per chunkSpans of capacity).
func NewRecorder(level Level, capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{
		level:    level,
		capacity: capacity,
		chunks:   make([][]Span, (capacity+chunkSpans-1)>>chunkShift),
	}
}

// SetStore gives the recorder the chunk store of the deployment that owns
// its run's memory (mccsd.Scratch); every chunk there is full-size, zero.
func (r *Recorder) SetStore(store *freelist.List[Span]) {
	if r != nil {
		r.store = store
	}
}

// slot returns the storage of ring position p, taking its chunk on first
// use: a full-size one from the store when it holds one, a fresh one
// otherwise. The last chunk is cut to the capacity and always fresh.
func (r *Recorder) slot(p int) *Span {
	ci := p >> chunkShift
	ch := r.chunks[ci]
	if ch == nil {
		n := min(chunkSpans, r.capacity-ci<<chunkShift)
		if n == chunkSpans {
			ch = r.store.Get(chunkSpans)
		}
		if ch == nil {
			ch = make([]Span, n)
		}
		r.chunks[ci] = ch
	}
	return &ch[p&(chunkSpans-1)]
}

// Release ends the recorder's run: its full-size chunks are cleared (so no
// span's route, rate history or label stays reachable through them) and go
// back to its chunk store for the next recorder (without a store they are
// dropped), and the recorder is left
// empty — Len and Dropped read 0, Snapshot holds no span, and Emit records
// again from an empty ring. Level, capacity, tap and metadata are kept. A
// Recording taken before keeps its spans: Snapshot copies them out. Release
// on a nil recorder does nothing.
func (r *Recorder) Release() {
	if r == nil {
		return
	}
	for i, ch := range r.chunks {
		if len(ch) == chunkSpans && r.store != nil {
			clear(ch)
			r.store.Put(ch)
		}
		r.chunks[i] = nil
	}
	r.n, r.head, r.total = 0, 0, 0
}

// Attach installs r as the scheduler's flight recorder.
func Attach(s *sim.Scheduler, r *Recorder) { s.SetTraceSink(r) }

// Of returns the recorder attached to s, or nil. The nil result is
// usable directly: every Recorder method tolerates a nil receiver.
func Of(s *sim.Scheduler) *Recorder {
	r, _ := s.TraceSink().(*Recorder)
	return r
}

// Enabled reports whether a span of kind k would be kept: at LevelFull
// every kind is. Hot paths use it to skip building expensive span
// payloads.
func (r *Recorder) Enabled(k Kind) bool {
	return r != nil && r.level == LevelFull
}

// Emit records sp unless recording is off. The caller's Span is
// copied into the ring; the only allocation on any path is the chunk a
// span is the first to land in when the chunk store has none to give — at
// most one per chunkSpans admitted spans until the ring has filled once,
// none after.
func (r *Recorder) Emit(sp Span) {
	if r == nil || r.level == LevelOff {
		return
	}
	r.total++
	var slot *Span
	if r.n < r.capacity {
		slot = r.slot(r.n)
		r.n++
	} else {
		slot = r.slot(r.head)
		r.head++
		if r.head == r.capacity {
			r.head = 0
		}
	}
	*slot = sp
	if r.tap != nil {
		// The tap observes the span already stored in the ring, so the
		// pointer aliases recorder-owned memory: consumers must copy
		// anything they keep. Because the tap fires after the ring write,
		// it sees every admitted span — including ones later overwritten
		// by wrap-around — which makes tap consumers immune to drops.
		r.tap(slot)
	}
}

// SetTap installs a second consumer that observes every admitted span
// at emission time (the diagnosis engine's live feed). The pointer is
// only valid for the duration of the call; fn must not retain it. A nil
// fn removes the tap. Installing a tap schedules no simulator events,
// so it is schedule-neutral by construction.
func (r *Recorder) SetTap(fn func(*Span)) {
	if r == nil {
		return
	}
	r.tap = fn
}

// Len returns the number of spans currently held.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return r.n
}

// Dropped returns how many spans were overwritten by ring wrap-around.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.total - uint64(r.n)
}

// Each visits the held spans oldest-first, in place: fn gets a pointer
// into the ring, valid only for the call, and must not emit. A post-run
// pass reads the recording this way without copying it (Snapshot does).
func (r *Recorder) Each(fn func(*Span)) {
	if r == nil {
		return
	}
	for i := 0; i < r.n; i++ {
		p := r.head + i
		if p >= r.n {
			p -= r.n
		}
		fn(&r.chunks[p>>chunkShift][p&(chunkSpans-1)])
	}
}

// SetTopology registers host names and the GPU/node -> host maps used
// to place spans on per-host process rows.
func (r *Recorder) SetTopology(hosts []string, gpuHost, nodeHost []int32, nodeNames []string) {
	if r == nil {
		return
	}
	r.meta.Hosts = hosts
	r.meta.GPUHost = gpuHost
	r.meta.NodeHost = nodeHost
	r.meta.NodeNames = nodeNames
}

// SetLinks registers the fabric link names and capacities.
func (r *Recorder) SetLinks(links []LinkMeta) {
	if r == nil {
		return
	}
	r.meta.Links = links
}

// NoteComm records which application owns a communicator.
func (r *Recorder) NoteComm(comm int32, app string) {
	if r == nil {
		return
	}
	if r.meta.CommApp == nil {
		r.meta.CommApp = make(map[int32]string)
	}
	r.meta.CommApp[comm] = app
}

// Meta returns the recorder's live metadata (nil for a nil recorder): what
// a Snapshot's Recording.Meta will hold, as it stands now. It is the
// recorder's own; callers only read it.
func (r *Recorder) Meta() *Meta {
	if r == nil {
		return nil
	}
	return &r.meta
}

// Snapshot copies the current ring contents and metadata into an
// immutable Recording for export or analysis.
func (r *Recorder) Snapshot() Recording {
	rec := Recording{Dropped: r.Dropped()}
	if r == nil {
		return rec
	}
	rec.Spans = make([]Span, 0, r.n)
	r.Each(func(sp *Span) { rec.Spans = append(rec.Spans, *sp) })
	rec.Meta = r.meta
	return rec
}

// Recording is an immutable snapshot of a recorder: the spans in
// emission order plus the topology metadata.
type Recording struct {
	Spans   []Span
	Meta    Meta
	Dropped uint64
}

// Fingerprint returns an FNV-1a hash over every span's fields, in
// order. Two runs with the same seed must produce equal fingerprints;
// the determinism test relies on this.
func (rec Recording) Fingerprint() uint64 {
	h := fnv.New64a()
	var b [8]byte
	w64 := func(v uint64) {
		for i := 0; i < 8; i++ {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	wf := func(v float64) { w64(math.Float64bits(v)) }
	for i := range rec.Spans {
		sp := &rec.Spans[i]
		w64(uint64(sp.Kind))
		w64(uint64(uint32(sp.Op)))
		w64(uint64(sp.Start))
		w64(uint64(sp.End))
		w64(uint64(sp.Busy))
		w64(uint64(uint32(sp.Host)))
		w64(uint64(uint32(sp.GPU)))
		w64(uint64(uint32(sp.Comm)))
		w64(uint64(uint32(sp.Rank)))
		w64(uint64(uint32(sp.Peer)))
		w64(uint64(uint32(sp.Channel)))
		w64(uint64(uint32(sp.Gen)))
		w64(uint64(uint32(sp.Step)))
		w64(sp.Seq)
		w64(uint64(sp.Flow))
		w64(uint64(sp.Bytes))
		w64(uint64(uint32(sp.Src)))
		w64(uint64(uint32(sp.Dst)))
		h.Write([]byte(sp.Label))
		for _, l := range sp.Route {
			w64(uint64(uint32(l)))
		}
		for _, s := range sp.Rates {
			w64(uint64(s.T))
			wf(s.Bps)
			w64(uint64(uint32(s.Bottleneck)))
			wf(s.LinkBps)
			wf(s.ExtBps)
			wf(s.CapBps)
		}
	}
	return h.Sum64()
}
