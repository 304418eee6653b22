package diagnosis

import (
	"fmt"
	"math/bits"

	"mccs/internal/sim"
	"mccs/internal/telemetry"
	"mccs/internal/trace"
)

// maxRanks bounds the per-op rank bitmasks and busy accumulators. Ranks
// beyond it are still tracked for completion via the comm rank set but
// excluded from straggler statistics.
const maxRanks = 64

// baseWindow is the rolling-baseline ring size.
const baseWindow = 8

type opKey struct {
	comm int32
	seq  uint64
}

// opState tracks one in-flight (comm, seq) collective assembled from its
// spans. States are pooled: the steady-state detection path allocates
// nothing once the pool and maps are warm.
type opState struct {
	key     opKey
	op      int32
	opKnown bool
	gen     int32
	class   int8 // log2 size class once bytes are known, -1 before
	start   sim.Time
	last    sim.Time // latest span end observed for this op
	bytes   int64
	started uint64 // ranks that emitted any span
	done    uint64 // ranks that emitted their KindOp completion
	busy    [maxRanks]sim.Duration
	gpu     [maxRanks]int32

	// Gating-flow evidence, folded in as flow spans arrive: trace.Gates
	// picks the flow and trace.Heavier its link, as trace.Attribute does,
	// among the op's fabric flows with a bottleneck sample (Attribute
	// also weighs intra-host transfers). gatingLink is -1 until a flow is
	// chosen.
	gatingStart    sim.Time
	gatingEnd      sim.Time
	gatingFlow     int64
	gatingCapFrac  float64 // observed/nominal capacity of the gating bottleneck
	gatingExt      float64 // external share of the gating bottleneck
	gatingLink     int32   // next to the flags below: opState stays in its size class
	gatingDegraded bool

	barrier  bool // overlapped a reconfiguration barrier
	flagged  bool // watchdog fired
	closed   bool
	incident int
}

// baseline is a rolling ring of completed-op durations for one cohort.
type baseline struct {
	ring [baseWindow]sim.Duration
	n    int
}

func (b *baseline) add(d sim.Duration) {
	b.ring[b.n%baseWindow] = d
	b.n++
}

func (b *baseline) held() int {
	if b.n > baseWindow {
		return baseWindow
	}
	return b.n
}

func (b *baseline) mean() sim.Duration {
	k := b.held()
	if k == 0 {
		return 0
	}
	var s sim.Duration
	for i := 0; i < k; i++ {
		s += b.ring[i]
	}
	return s / sim.Duration(k)
}

func (b *baseline) max() sim.Duration {
	var m sim.Duration
	for i := 0; i < b.held(); i++ {
		if b.ring[i] > m {
			m = b.ring[i]
		}
	}
	return m
}

type bkey struct {
	comm  int32
	op    int32
	class int8
}

// epKey names an episode: its detector and scope. a and b are the link
// (DetLink), comm and generation (DetReconfig), comm and rank
// (DetStraggler) or link and tenant (DetSLO).
type epKey struct {
	det    Detector
	a, b   int32
	tenant string
}

// episode is one incident its detector keeps extending with fresh
// evidence until the detector's own end rule fires: a quiet gap (link),
// every rank rebuilt (reconfiguration), a clean op (straggler) or a
// lapsed breach (SLO).
type episode struct {
	key      epKey
	incident int      // -1 while an SLO episode is short of SLOMinWindows
	lastEv   sim.Time // latest evidence
	rebuilt  uint64   // ranks that emitted their Rebuild phase
	closed   bool

	// SLO episodes count their windows before the incident opens.
	windows int
	firstT  sim.Time
	window  sim.Duration
	maxDef  float64
}

// Engine is the streaming health engine. Construct with Attach (live) or
// drive through Analyze (replay); both share the same detectors, so a
// capture replays to the identical incident timeline the live engine saw.
type Engine struct {
	cfg Config

	s   *sim.Scheduler
	rec *trace.Recorder
	reg *telemetry.Registry

	// meta names links (with their nominal capacities) and communicator
	// owners: the recorder's own metadata when live, the recording's on
	// replay, so both read one source. Nil without a recorder.
	meta *trace.Meta

	now       sim.Time
	spans     uint64
	sweeps    uint64
	opsClosed int
	dropped   uint64
	finished  bool

	ops       map[opKey]*opState
	order     []*opState // insertion order: the deterministic sweep sequence
	free      []*opState
	commRanks map[int32]uint64
	fold      trace.Bottlenecks // onFlow's scratch

	base    map[bkey]*baseline
	commAll map[int32]*baseline

	eps     map[epKey]*episode
	epOrd   []*episode // opening order: the deterministic end walk
	sloSeen int

	incidents []Incident
	openCount int

	// hook, when set, fires synchronously inside newIncident for every
	// incident the engine opens; remeds accumulates remediation spans
	// (in tap order) for time-to-recover matching at Finish.
	hook   func(*Incident)
	remeds []remedEvent

	mSpans    *telemetry.Counter
	mSweeps   *telemetry.Counter
	mOpen     *telemetry.Gauge
	mClass    [numClasses]*telemetry.Counter
	lastCause map[string]*telemetry.Gauge
}

func newEngine(cfg Config) *Engine {
	return &Engine{
		cfg:       cfg,
		ops:       make(map[opKey]*opState),
		commRanks: make(map[int32]uint64),
		base:      make(map[bkey]*baseline),
		commAll:   make(map[int32]*baseline),
		eps:       make(map[epKey]*episode),
		lastCause: make(map[string]*telemetry.Gauge),
	}
}

// Attach wires a live engine into a running environment: it taps the
// flight recorder for spans, registers mccs_doctor_* metrics on the
// registry (nil is fine — handles degrade to no-ops), and runs its
// detector sweep from the scheduler's end-of-instant hook.
//
// Neutrality: the tap observes spans synchronously inside Emit, the
// end-of-instant hook runs outside event execution, and neither path
// schedules simulator events or consumes PRNG draws — so attaching the
// doctor cannot change the simulated schedule. The chaos corpus pins
// this (trace hashes are byte-identical with the doctor on).
func Attach(s *sim.Scheduler, rec *trace.Recorder, reg *telemetry.Registry, cfg Config) *Engine {
	e := newEngine(cfg)
	e.s = s
	e.rec = rec
	e.reg = reg
	if reg != nil {
		e.registerMetrics(reg)
	}
	if rec != nil {
		e.meta = rec.Meta()
		rec.SetTap(e.onSpan)
	}
	s.OnInstantEnd(e.instantEnd)
	return e
}

func (e *Engine) registerMetrics(reg *telemetry.Registry) {
	e.mSpans = reg.Counter("mccs_doctor_spans_total", "spans")
	e.mSweeps = reg.Counter("mccs_doctor_sweeps_total", "sweeps")
	e.mOpen = reg.Gauge("mccs_doctor_open_incidents", "incidents")
	for c := 0; c < numClasses; c++ {
		e.mClass[c] = reg.Counter("mccs_doctor_incidents_total", "incidents",
			telemetry.L("class", Class(c).String()))
	}
}

func (e *Engine) linkMeta(link int32) trace.LinkMeta {
	if e.meta != nil && link >= 0 && int(link) < len(e.meta.Links) {
		return e.meta.Links[link]
	}
	return trace.LinkMeta{}
}

func (e *Engine) linkName(link int32) string { return e.linkMeta(link).Name }

func (e *Engine) tenantOf(comm int32) string {
	if e.meta == nil {
		return ""
	}
	return e.meta.CommApp[comm]
}

// instantEnd is the live sweep hook. It is idempotent (the scheduler may
// run it more than once per instant) and schedules nothing.
func (e *Engine) instantEnd() {
	if e.finished {
		return
	}
	if t := e.s.Now(); t > e.now {
		e.now = t
	}
	e.sweep()
}

// onSpan is the recorder tap: it dispatches every admitted span to the
// detectors. The span pointer aliases recorder memory and is not
// retained. Zero allocations on the no-incident path.
func (e *Engine) onSpan(sp *trace.Span) {
	e.spans++
	e.mSpans.Inc()
	if sp.End > e.now {
		e.now = sp.End
	}
	switch sp.Kind {
	case trace.KindStep:
		e.onStep(sp)
	case trace.KindOp:
		e.onOp(sp)
	case trace.KindFlow:
		e.onFlow(sp)
	case trace.KindBarrier:
		e.onBarrier(sp)
	case trace.KindSched:
		e.onSched(sp)
	case trace.KindRemediation:
		e.onRemediation(sp)
	}
}

func (e *Engine) alloc() *opState {
	if n := len(e.free); n > 0 {
		st := e.free[n-1]
		e.free = e.free[:n-1]
		*st = opState{}
		return st
	}
	return new(opState)
}

func (e *Engine) noteRank(comm int32, rank int32) {
	if rank >= 0 && rank < maxRanks {
		e.commRanks[comm] |= 1 << uint(rank)
	}
}

// op finds or opens the state for (comm, seq), folding the span's
// interval in.
func (e *Engine) op(comm int32, seq uint64, sp *trace.Span) *opState {
	k := opKey{comm, seq}
	if st, ok := e.ops[k]; ok {
		if sp.Start < st.start {
			st.start = sp.Start
		}
		if sp.End > st.last {
			st.last = sp.End
		}
		if !st.opKnown && sp.Op >= 0 {
			st.op, st.opKnown = sp.Op, true
		}
		if sp.Gen > st.gen {
			st.gen = sp.Gen
		}
		return st
	}
	st := e.alloc()
	st.key = k
	st.op, st.opKnown = sp.Op, sp.Op >= 0
	st.gen = sp.Gen
	st.class = -1
	st.start = sp.Start
	st.last = sp.End
	st.gatingLink = -1
	st.incident = -1
	e.ops[k] = st
	e.order = append(e.order, st)
	return st
}

func (e *Engine) onStep(sp *trace.Span) {
	if sp.Comm == 0 {
		return
	}
	e.noteRank(sp.Comm, sp.Rank)
	st := e.op(sp.Comm, sp.Seq, sp)
	if sp.Rank >= 0 && sp.Rank < maxRanks {
		st.started |= 1 << uint(sp.Rank)
		st.busy[sp.Rank] += sp.Busy
		st.gpu[sp.Rank] = sp.GPU
	}
}

func (e *Engine) onOp(sp *trace.Span) {
	if sp.Comm == 0 {
		return
	}
	e.noteRank(sp.Comm, sp.Rank)
	st := e.op(sp.Comm, sp.Seq, sp)
	if sp.Bytes > 0 {
		st.bytes = sp.Bytes
		if st.class < 0 {
			st.class = int8(bits.Len64(uint64(sp.Bytes)))
		}
	}
	if sp.Rank >= 0 && sp.Rank < maxRanks {
		bit := uint64(1) << uint(sp.Rank)
		st.started |= bit
		st.done |= bit
		st.gpu[sp.Rank] = sp.GPU
	}
	// The op is complete once every rank ever seen on this communicator
	// has reported rank-local completion. (Data dependencies guarantee
	// that by the time any rank's KindOp arrives, every participating
	// rank of a ring/HD op has already emitted step spans.)
	if want := e.commRanks[sp.Comm]; want != 0 && st.done == want {
		e.closeOp(st)
	}
}

func (e *Engine) closeOp(st *opState) {
	st.closed = true
	delete(e.ops, st.key)
	e.opsClosed++
	dur := st.last.Sub(st.start)
	if !st.flagged {
		if dl, ok := e.deadline(st); ok && dur > dl {
			e.flagStall(st)
		}
	}
	if st.flagged && st.incident >= 0 {
		in := &e.incidents[st.incident]
		if st.last > in.End {
			in.End = st.last
		}
		e.reclassifyStall(st, in)
		e.closeIncident(in)
	}
	e.checkStraggler(st)
	// Flagged (stalled) ops are excluded from the baseline so a fault
	// cannot poison the cohort and mask the next one.
	if !st.flagged {
		e.baseAdd(st, dur)
	}
}

func (e *Engine) baseAdd(st *opState, dur sim.Duration) {
	if st.opKnown && st.class >= 0 {
		k := bkey{st.key.comm, st.op, st.class}
		b := e.base[k]
		if b == nil {
			b = new(baseline)
			e.base[k] = b
		}
		b.add(dur)
	}
	b := e.commAll[st.key.comm]
	if b == nil {
		b = new(baseline)
		e.commAll[st.key.comm] = b
	}
	b.add(dur)
}

// deadline returns the watchdog deadline for st, or false while its
// cohort baseline has not armed. The per-(comm,op,size-class) mean is
// preferred; an op whose size is not yet known (no rank completed) falls
// back to the per-comm rolling max.
func (e *Engine) deadline(st *opState) (sim.Duration, bool) {
	if st.opKnown && st.class >= 0 {
		if b := e.base[bkey{st.key.comm, st.op, st.class}]; b != nil && b.n >= e.cfg.MinBaselineOps {
			return e.withFloor(sim.Duration(e.cfg.StallMultiplier * float64(b.mean()))), true
		}
	}
	if b := e.commAll[st.key.comm]; b != nil && b.n >= e.cfg.MinBaselineOps {
		return e.withFloor(sim.Duration(e.cfg.StallMultiplier * float64(b.max()))), true
	}
	return 0, false
}

func (e *Engine) withFloor(d sim.Duration) sim.Duration {
	if d < e.cfg.StallFloor {
		return e.cfg.StallFloor
	}
	return d
}

// flagStall opens a stall incident for a (still pending or just closed)
// op. The class is provisional until the op completes — see
// reclassifyStall.
func (e *Engine) flagStall(st *opState) {
	st.flagged = true
	cls, rank, conf := e.classifyStall(st)
	in := Incident{
		Detector: DetStall, Class: cls,
		Start: st.start, End: e.now, Detected: e.now,
		Comm: st.key.comm, Seq: st.key.seq, Op: opCode(st),
		Rank: rank, GPU: -1, Link: -1,
		Tenant:     e.tenantOf(st.key.comm),
		Confidence: conf, Evidence: 1,
	}
	if st.last > in.End {
		in.End = st.last
	}
	e.stallBlame(st, &in, rank)
	st.incident = e.newIncident(in)
}

// reclassifyStall re-runs the classifier once the op has fully closed
// (all evidence in) and updates the incident in place.
func (e *Engine) reclassifyStall(st *opState, in *Incident) {
	cls, rank, conf := e.classifyStall(st)
	in.Class = cls
	in.Rank = rank
	in.GPU = -1
	in.Link = -1
	in.Confidence = conf
	e.stallBlame(st, in, rank)
}

func (e *Engine) stallBlame(st *opState, in *Incident, rank int32) {
	switch in.Class {
	case ClassSlowGPU:
		if rank >= 0 && rank < maxRanks {
			in.GPU = st.gpu[rank]
		}
		in.Blamed = fmt.Sprintf("rank %d (gpu %d)", rank, in.GPU)
	case ClassCongestedLink:
		in.Link = st.gatingLink
		in.LinkName = e.linkName(st.gatingLink)
		in.Blamed = "link " + in.LinkName
	case ClassTenantContention:
		in.Link = st.gatingLink
		in.LinkName = e.linkName(st.gatingLink)
		in.Blamed = "competing traffic on " + in.LinkName
	case ClassReconfigStall:
		in.Blamed = "controller"
	default:
		in.Blamed = "unattributed"
	}
	in.Detail = fmt.Sprintf("%s seq %d ran %v against a deadline", trace.OpName(opCode(st)), st.key.seq, st.last.Sub(st.start))
}

func opCode(st *opState) int32 {
	if st.opKnown {
		return st.op
	}
	return -1
}

// checkStraggler compares the per-rank busy time of a completed op
// against the cross-rank median and maintains per-(comm,rank) episodes:
// consecutive outlier ops extend one incident, the first clean op closes
// it.
func (e *Engine) checkStraggler(st *opState) {
	rank, ratio, med := busyOutlier(st, e.cfg.StragglerRatio, e.cfg.StragglerMinBusy)
	if med <= 0 {
		return // no busy data (tree op, tiny comm): leave episodes alone
	}
	m := st.started
	for m != 0 {
		r := int32(bits.TrailingZeros64(m))
		m &^= 1 << uint(r)
		if st.busy[r] <= 0 {
			continue
		}
		k := epKey{det: DetStraggler, a: st.key.comm, b: r}
		ep := e.eps[k]
		switch {
		case r == rank && ep == nil:
			e.openEpisode(k, st.last).incident = e.newIncident(Incident{
				Detector: DetStraggler, Class: ClassSlowGPU,
				Start: st.start, End: st.last, Detected: e.now,
				Comm: st.key.comm, Seq: st.key.seq, Op: opCode(st),
				Rank: r, GPU: st.gpu[r], Link: -1,
				Tenant:     e.tenantOf(st.key.comm),
				Blamed:     fmt.Sprintf("rank %d (gpu %d)", r, st.gpu[r]),
				Confidence: 1 - 1/ratio, Evidence: 1,
				Detail: fmt.Sprintf("busy %.1fx the cross-rank median", ratio),
			})
		case r == rank:
			if in := e.incidentOf(ep); in != nil && in.widen(st.start, st.last, 1-1/ratio) {
				in.Detail = fmt.Sprintf("busy %.1fx the cross-rank median", ratio)
			}
		case ep != nil:
			e.endEpisode(ep) // a clean op for this rank ends the episode
		}
	}
}

// busyOutlier returns the rank with the largest busy/median ratio when
// it clears the straggler thresholds (-1 otherwise), plus that ratio and
// the cross-rank median. Zero-allocation: fixed arrays, insertion sort.
func busyOutlier(st *opState, minRatio float64, minBusy sim.Duration) (int32, float64, sim.Duration) {
	var vals [maxRanks]sim.Duration
	n := 0
	m := st.started
	for m != 0 {
		r := bits.TrailingZeros64(m)
		m &^= 1 << uint(r)
		if st.busy[r] > 0 {
			vals[n] = st.busy[r]
			n++
		}
	}
	if n < 3 {
		return -1, 0, 0
	}
	for i := 1; i < n; i++ {
		v := vals[i]
		j := i - 1
		for j >= 0 && vals[j] > v {
			vals[j+1] = vals[j]
			j--
		}
		vals[j+1] = v
	}
	med := vals[n/2]
	if med <= 0 {
		return -1, 0, 0
	}
	best, bestRatio := int32(-1), 0.0
	m = st.started
	for m != 0 {
		r := int32(bits.TrailingZeros64(m))
		m &^= 1 << uint(r)
		b := st.busy[r]
		if b < minBusy {
			continue
		}
		ratio := float64(b) / float64(med)
		if ratio >= minRatio && ratio > bestRatio {
			best, bestRatio = r, ratio
		}
	}
	return best, bestRatio, med
}

// onFlow scans a fabric flow's rate history: every bottleneck sample is
// degraded-link evidence when the bottleneck's reported capacity sits
// below nominal, and the flow as a whole updates its op's gating-flow
// evidence (trace.Gates, then trace.Bottlenecks for its link).
func (e *Engine) onFlow(sp *trace.Span) {
	for i := range sp.Rates {
		s := &sp.Rates[i]
		nom := e.nominalOf(s.Bottleneck)
		if frac := s.CapBps / nom; nom > 0 && frac < 1-e.cfg.LinkTolerance {
			t1 := sp.End
			if i+1 < len(sp.Rates) {
				t1 = sp.Rates[i+1].T
			}
			e.linkEvidence(s.Bottleneck, s.T, t1, frac)
		}
	}
	if sp.Comm == 0 {
		return
	}
	b := &e.fold
	if b.Fold(sp); b.Best < 0 {
		return
	}
	// Tagged flows complete before their receiving rank's step/KindOp, so
	// opening state here can never resurrect a closed op.
	st := e.op(sp.Comm, sp.Seq, sp)
	if st.gatingLink >= 0 && !trace.Gates(sp, &trace.Span{Start: st.gatingStart, End: st.gatingEnd, Flow: st.gatingFlow}) {
		return
	}
	st.gatingStart, st.gatingEnd, st.gatingFlow = sp.Start, sp.End, sp.Flow
	d := b.Best
	st.gatingLink = b.Link[d]
	st.gatingCapFrac, st.gatingExt = 0, 0
	if nom := e.nominalOf(b.Link[d]); nom > 0 {
		st.gatingCapFrac = b.Cap[d] / nom
	}
	st.gatingDegraded = st.gatingCapFrac > 0 && st.gatingCapFrac < 1-e.cfg.LinkTolerance
	if b.Tot[d] > 0 {
		st.gatingExt = b.Ext[d] / b.Tot[d]
	}
}

func (e *Engine) nominalOf(link int32) float64 { return e.linkMeta(link).CapBps }

// linkEvidence extends (or opens) the degraded-link episode for link
// with evidence covering [t0, t1] at capacity fraction frac.
func (e *Engine) linkEvidence(link int32, t0, t1 sim.Time, frac float64) {
	k := epKey{det: DetLink, a: link}
	ep := e.eps[k]
	if ep == nil {
		e.openEpisode(k, t1).incident = e.newIncident(Incident{
			Detector: DetLink, Class: ClassCongestedLink,
			Start: t0, End: t1, Detected: e.now,
			Comm: 0, Op: -1, Rank: -1, GPU: -1,
			Link: link, LinkName: e.linkName(link),
			Blamed:     "link " + e.linkName(link),
			Confidence: 1 - frac, Evidence: 1,
			Detail: fmt.Sprintf("capacity at %.0f%% of nominal", frac*100),
		})
		return
	}
	ep.lastEv = max(ep.lastEv, t1)
	if in := e.incidentOf(ep); in != nil && in.widen(t0, t1, 1-frac) {
		in.Detail = fmt.Sprintf("capacity at %.0f%% of nominal", frac*100)
	}
}

// onBarrier folds a reconfiguration-barrier phase span into the episode
// of the (comm, generation) it builds and marks every pending op on the
// communicator as reconfig-stalled. The proxy emits every phase but
// Rebuild under the generation being left; the episode ends once every
// rank of the communicator has rebuilt.
func (e *Engine) onBarrier(sp *trace.Span) {
	gen := sp.Gen
	if sp.Op != trace.PhaseRebuild {
		gen++
	}
	k := epKey{det: DetReconfig, a: sp.Comm, b: gen}
	ep := e.eps[k]
	if ep == nil {
		ep = e.openEpisode(k, sp.End)
		ep.incident = e.newIncident(Incident{
			Detector: DetReconfig, Class: ClassReconfigStall,
			Start: sp.Start, End: sp.End, Detected: e.now,
			Comm: sp.Comm, Seq: sp.Seq, Op: -1, Rank: -1, GPU: -1, Link: -1,
			Tenant:     e.tenantOf(sp.Comm),
			Blamed:     "controller",
			Confidence: 1, Evidence: 1,
			Detail: fmt.Sprintf("reconfiguration to generation %d", gen),
		})
	} else if in := e.incidentOf(ep); in != nil {
		in.widen(sp.Start, sp.End, 0)
	}
	if sp.Op == trace.PhaseRebuild && sp.Rank >= 0 && sp.Rank < maxRanks {
		ep.rebuilt |= 1 << uint(sp.Rank)
		if want := e.commRanks[sp.Comm]; want != 0 && ep.rebuilt&want == want {
			e.endEpisode(ep)
		}
	}
	for _, st := range e.order {
		if !st.closed && st.key.comm == sp.Comm {
			st.barrier = true
		}
	}
}

// onSched raises an admission-queueing incident for queue waits above
// the floor. Queue spans are emitted at placement, so the incident is
// born closed.
func (e *Engine) onSched(sp *trace.Span) {
	if sp.Op != trace.SchedQueue {
		return
	}
	d := sp.Dur()
	if d < e.cfg.QueueFloor {
		return
	}
	// A zero-floor config admits zero-duration queue spans; guard the
	// ratio so 0/0 cannot put a NaN confidence into the report (the
	// telemetry registry rejects non-finite samples silently).
	conf := 0.0
	if d > 0 {
		conf = 1 - float64(e.cfg.QueueFloor)/float64(d)
	}
	in := Incident{
		Detector: DetQueue, Class: ClassAdmissionQueueing,
		Start: sp.Start, End: sp.End, Detected: e.now,
		Comm: 0, Seq: sp.Seq, Op: -1, Rank: -1, GPU: -1, Link: -1,
		Tenant:     sp.Label,
		Blamed:     "admission queue",
		Confidence: conf,
		Evidence:   1,
		Detail:     fmt.Sprintf("job %d queued %v before placement", sp.Seq, d),
	}
	if idx := e.newIncident(in); idx >= 0 {
		e.closeIncident(&e.incidents[idx])
	}
}

// classifyStall walks the stalled op's evidence in priority order:
// reconfiguration barrier overlap, per-rank busy skew, the gating flow's
// degraded bottleneck, then its external-traffic share.
func (e *Engine) classifyStall(st *opState) (Class, int32, float64) {
	if st.barrier {
		return ClassReconfigStall, -1, 0.9
	}
	if rank, ratio, _ := busyOutlier(st, e.cfg.StragglerRatio, e.cfg.StragglerMinBusy); rank >= 0 {
		return ClassSlowGPU, rank, 1 - 1/ratio
	}
	if st.gatingDegraded {
		return ClassCongestedLink, -1, 1 - st.gatingCapFrac
	}
	if st.gatingExt >= e.cfg.ExtShare {
		return ClassTenantContention, -1, st.gatingExt
	}
	return ClassUnknown, -1, 0.3
}

// feedViolation coalesces one SLO violation into its (tenant, link)
// episode; an incident opens once SLOMinWindows near-consecutive
// windows accumulate.
func (e *Engine) feedViolation(v *telemetry.Violation) {
	if v.EntitledBps <= 0 {
		return
	}
	def := v.DeficitBps / v.EntitledBps
	if def < e.cfg.SLOMinDeficit {
		return
	}
	k := epKey{det: DetSLO, a: v.Link, tenant: v.Tenant}
	ep := e.eps[k]
	if ep != nil && v.T.Sub(ep.lastEv) > 2*ep.window {
		e.endEpisode(ep) // the breach lapsed and resumed
		ep = nil
	}
	if ep == nil {
		ep = e.openEpisode(k, v.T)
		ep.window, ep.firstT = v.Window, v.T.Add(-v.Window)
	}
	ep.windows++
	ep.lastEv = v.T
	ep.maxDef = max(ep.maxDef, def)
	in := e.incidentOf(ep)
	switch {
	case ep.incident < 0 && ep.windows >= e.cfg.SLOMinWindows:
		ep.incident = e.newIncident(Incident{
			Detector: DetSLO, Class: ClassTenantContention,
			Start: ep.firstT, End: v.T, Detected: e.now,
			Comm: 0, Op: -1, Rank: -1, GPU: -1,
			Link: v.Link, LinkName: v.LinkName,
			Tenant:     v.Tenant,
			Blamed:     "competing traffic on " + v.LinkName,
			Confidence: ep.maxDef, Evidence: ep.windows,
			Detail: fmt.Sprintf("entitlement deficit %.0f%% over %d windows", ep.maxDef*100, ep.windows),
		})
	case in != nil && in.widen(v.T, v.T, ep.maxDef):
		in.Detail = fmt.Sprintf("entitlement deficit %.0f%% over %d windows", ep.maxDef*100, ep.windows)
	}
}

// sweep is the end-of-instant detector pass: watchdog deadlines over the
// pending ops (in insertion order — never map order), quiet-gap episode
// closing, and the SLO violation poll. Idempotent and allocation-free
// when nothing fires.
func (e *Engine) sweep() {
	e.sweeps++
	e.mSweeps.Inc()
	out := e.order[:0]
	for _, st := range e.order {
		if st.closed {
			e.free = append(e.free, st)
			continue
		}
		out = append(out, st)
		if !st.flagged {
			if dl, ok := e.deadline(st); ok && e.now.Sub(st.start) > dl {
				e.flagStall(st)
			}
		} else if st.incident >= 0 {
			in := &e.incidents[st.incident]
			if e.now > in.End {
				in.End = e.now
			}
		}
	}
	e.order = out
	// Link episodes end after QuietGap without fresh evidence; the others
	// end by their own rule and only leave the walk.
	eps := e.epOrd[:0]
	for _, ep := range e.epOrd {
		if ep.key.det == DetLink && !ep.closed && e.now.Sub(ep.lastEv) > e.cfg.QuietGap {
			e.endEpisode(ep)
		}
		if !ep.closed {
			eps = append(eps, ep)
		}
	}
	e.epOrd = eps
	if e.reg != nil && e.reg.SLO != nil {
		vs := e.reg.SLO.Violations()
		for ; e.sloSeen < len(vs); e.sloSeen++ {
			e.feedViolation(&vs[e.sloSeen])
		}
	}
}

// openEpisode starts the episode k with evidence up to at; the caller
// opens its incident.
func (e *Engine) openEpisode(k epKey, at sim.Time) *episode {
	ep := &episode{key: k, incident: -1, lastEv: at}
	e.eps[k] = ep
	e.epOrd = append(e.epOrd, ep)
	return ep
}

// endEpisode closes ep and its incident; the next evidence for its key
// opens a new one.
func (e *Engine) endEpisode(ep *episode) {
	if in := e.incidentOf(ep); in != nil {
		e.closeIncident(in)
	}
	ep.closed = true
	delete(e.eps, ep.key)
}

func (e *Engine) incidentOf(ep *episode) *Incident {
	if ep.incident < 0 {
		return nil
	}
	return &e.incidents[ep.incident]
}

// widen folds one more observation over [t0, t1] into the incident and
// reports whether its confidence conf raised the incident's, so the
// caller can restate Detail.
func (in *Incident) widen(t0, t1 sim.Time, conf float64) bool {
	in.Start, in.End = min(in.Start, t0), max(in.End, t1)
	in.Evidence++
	if conf > in.Confidence {
		in.Confidence = conf
		return true
	}
	return false
}

func (e *Engine) newIncident(in Incident) int {
	if len(e.incidents) >= DefaultMaxIncidents {
		return -1
	}
	in.ID = len(e.incidents)
	in.open = true
	e.incidents = append(e.incidents, in)
	e.openCount++
	e.mOpen.Set(float64(e.openCount))
	// Stall incidents are counted per class at close (the class can be
	// refined once the op completes); everything else counts at open.
	if in.Detector != DetStall {
		e.countClass(&e.incidents[in.ID])
	}
	if e.hook != nil {
		e.hook(&e.incidents[in.ID])
	}
	return in.ID
}

func (e *Engine) closeIncident(in *Incident) {
	if !in.open {
		return
	}
	in.open = false
	e.openCount--
	e.mOpen.Set(float64(e.openCount))
	if in.Detector == DetStall {
		e.countClass(in)
	}
}

func (e *Engine) countClass(in *Incident) {
	e.mClass[in.Class].Inc()
	if e.reg != nil && in.Tenant != "" {
		g := e.lastCause[in.Tenant]
		if g == nil {
			g = e.reg.Gauge("mccs_doctor_last_cause", "class", telemetry.L("tenant", in.Tenant))
			e.lastCause[in.Tenant] = g
		}
		g.Set(float64(in.Class))
	}
}

// Finish runs the final sweep, closes every open episode and returns the
// report. Idempotent; call after the simulation drains (live) — Analyze
// calls it for replays.
func (e *Engine) Finish() *Report {
	if !e.finished {
		if e.s != nil {
			if t := e.s.Now(); t > e.now {
				e.now = t
			}
		}
		e.sweep()
		for _, st := range e.order {
			if st.closed {
				continue
			}
			if st.flagged && st.incident >= 0 {
				in := &e.incidents[st.incident]
				if st.last > in.End {
					in.End = st.last
				}
				e.closeIncident(in)
			}
		}
		for _, ep := range e.epOrd {
			if !ep.closed {
				e.endEpisode(ep)
			}
		}
		if e.rec != nil {
			e.dropped = e.rec.Dropped()
		}
		e.matchRemediations()
		e.finished = true
	}
	return e.report()
}

// remedEvent is one self-healing span the engine observed: a recovery
// action or a link re-admission, kept in tap order for deterministic
// time-to-recover matching.
type remedEvent struct {
	at   sim.Time
	op   int32 // trace.Remed* code
	link int32 // quarantined/remediated link, -1 n/a
	comm int32 // remediated communicator, 0 n/a
}

// onRemediation records self-healing spans for time-to-recover
// reporting. Quarantine transitions are bookkeeping, not recovery, so
// only actions and re-admissions are kept.
func (e *Engine) onRemediation(sp *trace.Span) {
	switch sp.Op {
	case trace.RemedQuarantine:
		return
	}
	e.remeds = append(e.remeds, remedEvent{at: sp.End, op: sp.Op, link: sp.Src, comm: sp.Comm})
}

// matchRemediations stamps RemediatedAt/RecoveredAt on incidents from
// the remediation spans: an incident of a class remediation acts on
// (Class.Remediable) is remediated by the first action at or after its
// detection that targets the same link (or, lacking a link, the same
// communicator), and a link incident recovers when that link is
// re-admitted. Both scans are in span-tap order, so the match is
// deterministic. Runs without remediation leave remeds empty and every
// incident untouched.
func (e *Engine) matchRemediations() {
	for i := range e.incidents {
		in := &e.incidents[i]
		for _, ev := range e.remeds {
			if ev.at < in.Detected || !in.Class.Remediable() {
				continue
			}
			switch {
			case ev.op == trace.RemedReadmit:
				if in.Link >= 0 && ev.link == in.Link && in.RecoveredAt == 0 && in.RemediatedAt != 0 {
					in.RecoveredAt = ev.at
				}
			case in.RemediatedAt == 0:
				if (in.Link >= 0 && ev.link == in.Link) ||
					(in.Link < 0 && in.Comm != 0 && ev.comm == in.Comm) ||
					(in.Link < 0 && in.Comm == 0 && ev.link < 0) {
					in.RemediatedAt = ev.at
				}
			}
			if in.RemediatedAt != 0 && (in.Link < 0 || in.RecoveredAt != 0) {
				break
			}
		}
	}
}

// SetIncidentHook registers fn to be called synchronously inside
// newIncident for every incident the engine opens (stall incidents may
// later refine their class; the hook sees the class at open time). The
// pointer aliases engine memory and must not be retained. The hook runs
// inside the recorder tap / end-of-instant sweep, so it MUST NOT
// schedule simulator events or block — queue and act on your own clock.
func (e *Engine) SetIncidentHook(fn func(*Incident)) { e.hook = fn }

func (e *Engine) report() *Report {
	pending := 0
	for _, st := range e.order {
		if !st.closed {
			pending++
		}
	}
	return &Report{
		Incidents: append([]Incident(nil), e.incidents...),
		Spans:     e.spans,
		Dropped:   e.dropped,
		Ops:       e.opsClosed,
		Pending:   pending,
		Sweeps:    e.sweeps,
		End:       e.now,
	}
}
