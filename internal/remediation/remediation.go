// Package remediation closes the MCCS detect→diagnose→recover loop: a
// deterministic, sim-time control daemon that subscribes to diagnosis
// verdicts (diagnosis.Engine.SetIncidentHook) and link-health
// transitions observed directly from the fabric — a capacity dip and
// persistent unmanaged (external) traffic alike — and drives recovery
// through the existing service machinery — policy route re-pinning and
// ring reversal, the strategy autotuner, fair flow assignment, and
// orchestrator-mediated reconfiguration.
//
// The paper leaves monitoring to external components: "a switch agent
// can be configured to report to a centralized manager when there are
// persistent large flows that are not managed by MCCS. The centralized
// manager can then send a new configuration to MCCS service." This
// engine is that agent and manager (the Fig. 7 story automated), and the
// diagnosis engine's verdicts feed it too: verdicts become actions.
//
// Robustness semantics (production-shaped, per ISSUE 10):
//
//   - Link quarantine with probation and re-admission. Each link walks
//     healthy → suspect → quarantined → probation → healthy; a link
//     that degrades again during probation returns to quarantined
//     within the same episode.
//   - Escalation ladder per quarantined link: re-pin affected
//     connections onto clean equal-cost paths (falling back to ring
//     reversal when no diversity exists) → re-run the autotuner against
//     the degraded fabric → graceful degradation to a reduced-channel
//     strategy. A rung only fires while some communicator still routes
//     over the quarantined link, so a successful move quiesces the
//     ladder.
//   - Per-cause policies with exponential backoff and cooldown: each
//     episode allows at most MaxActions actions, spaced Cooldown,
//     2×Cooldown, 4×Cooldown, … apart (capped at BackoffMax), so a
//     flapping link cannot oscillate the control plane.
//   - Non-link causes: persistent stragglers (slow-GPU verdicts)
//     trigger a re-tune of the affected communicator; tenant-contention
//     and SLO-breach verdicts re-run fair flow assignment.
//
// Determinism: the daemon ticks on its own sim-time clock; the
// diagnosis hook only queues (never schedules); links are scanned in
// ascending ID order and episodes in insertion order, so same-seed runs
// produce byte-identical reports. When the engine is not attached
// nothing subscribes and nothing ticks — the simulated schedule is
// exactly the pre-remediation schedule.
package remediation

import (
	"fmt"
	"time"

	"mccs/internal/diagnosis"
	"mccs/internal/mccsd"
	"mccs/internal/netsim"
	"mccs/internal/policy"
	"mccs/internal/sim"
	"mccs/internal/spec"
	"mccs/internal/telemetry"
	"mccs/internal/trace"
)

// Config tunes the control loop. Start from DefaultConfig.
type Config struct {
	// Interval between control-loop ticks.
	Interval time.Duration
	// LinkTolerance is how far below nominal capacity the capacity left
	// for managed traffic (capacity minus external load) may fall before
	// a link counts as degraded. The default is the doctor's own
	// (diagnosis.DefaultConfig), so both call the same links degraded.
	LinkTolerance float64
	// SuspectAfter is how many consecutive degraded ticks move a link
	// from suspect to quarantined. A congested-link diagnosis verdict
	// quarantines immediately, skipping the wait.
	SuspectAfter int
	// ProbationAfter is how many consecutive clean ticks a quarantined
	// link must hold before re-admission.
	ProbationAfter int
	// Cooldown is the base spacing between actions within one episode;
	// the n-th action waits Cooldown×2^(n-1), capped at BackoffMax.
	Cooldown   time.Duration
	BackoffMax time.Duration
	// MaxActions caps actions per episode (the K in the flapping-link
	// guarantee): further opportunities are counted as suppressed.
	MaxActions int
	// EpisodeQuiet closes a non-link cause episode after this much sim
	// time without fresh evidence, so a later recurrence starts a fresh
	// backoff ladder.
	EpisodeQuiet time.Duration
	// RetuneBytes/RetuneMaxChannels shape the autotuner pass used by the
	// re-tune rung.
	RetuneBytes       int64
	RetuneMaxChannels int
}

// DefaultConfig returns the tuning used by the chaos self-heal scenario
// and the CLIs.
func DefaultConfig() Config {
	return Config{
		Interval:          200 * time.Microsecond,
		LinkTolerance:     diagnosis.DefaultConfig().LinkTolerance,
		SuspectAfter:      2,
		ProbationAfter:    3,
		Cooldown:          500 * time.Microsecond,
		BackoffMax:        10 * time.Millisecond,
		MaxActions:        3,
		EpisodeQuiet:      5 * time.Millisecond,
		RetuneBytes:       1 << 17,
		RetuneMaxChannels: 2,
	}
}

// linkPhase is one state of the per-link quarantine machine.
type linkPhase uint8

const (
	phaseHealthy linkPhase = iota
	phaseSuspect
	phaseQuarantined
	phaseProbation
)

var phaseNames = [...]string{"healthy", "suspect", "quarantined", "probation"}

func (p linkPhase) String() string { return phaseNames[p] }

// episode tracks one cause's backoff ladder.
type episode struct {
	attempts    int
	nextAllowed sim.Time
	opened      sim.Time // first evidence (detection) — TTR starts here
	lastSeen    sim.Time // latest evidence, for EpisodeQuiet closing
}

// backoff returns the wait before the episode's next action.
func (ep *episode) backoff(cfg *Config) sim.Duration {
	d := cfg.Cooldown << uint(ep.attempts)
	if d > cfg.BackoffMax || d <= 0 {
		d = cfg.BackoffMax
	}
	return sim.Duration(d)
}

type linkState struct {
	phase   linkPhase
	suspect int // consecutive degraded ticks while suspect
	clean   int // consecutive clean ticks while on probation
	verdict bool
	ep      episode
}

// epKey identifies a non-link cause episode.
type epKey struct {
	class  diagnosis.Class
	comm   int32  // communicator for slow-gpu, 0 otherwise
	entity int32  // rank for slow-gpu, -1 otherwise
	tenant string // tenant for contention/SLO, "" otherwise
}

// causeEvent is one queued diagnosis verdict, copied out of the hook.
type causeEvent struct {
	class  diagnosis.Class
	det    diagnosis.Detector
	link   int32
	comm   int32
	rank   int32
	tenant string
	at     sim.Time
}

// Engine is the self-healing control loop.
type Engine struct {
	cfg  Config
	s    *sim.Scheduler
	dep  *mccsd.Deployment
	ctrl *policy.Controller
	rec  *trace.Recorder
	reg  *telemetry.Registry

	nominal   []float64
	linkNames []string
	links     []linkState

	queue []causeEvent

	eps   map[epKey]*episode
	epOrd []epKey

	events      []ActionRecord
	quarantined int
	suppressed  int
	finished    bool

	mActions    [len(actionNames)]*telemetry.Counter
	mQuar       *telemetry.Counter
	mReadmit    *telemetry.Counter
	mSuppressed *telemetry.Counter
	gQuar       *telemetry.Gauge
	hTTR        *telemetry.Histogram
}

// Attach builds the engine against a live deployment and subscribes it
// to the diagnosis engine's incident stream (diag may be nil to run on
// link-health evidence alone). The engine acts through ctrl, the
// deployment's policy controller. Call before any fault is injected: the
// per-link nominal capacities are snapshotted here. cfg is taken as given —
// start from DefaultConfig; a zero field is not filled in. Nothing runs
// until Start.
func Attach(s *sim.Scheduler, dep *mccsd.Deployment, ctrl *policy.Controller, diag *diagnosis.Engine, cfg Config) *Engine {
	if cfg.Interval <= 0 {
		panic("remediation: Config.Interval must be positive (start from DefaultConfig)")
	}
	net := dep.Cluster.Net
	e := &Engine{
		cfg:  cfg,
		s:    s,
		dep:  dep,
		ctrl: ctrl,
		rec:  trace.Of(s),
		reg:  telemetry.Of(s),
		eps:  make(map[epKey]*episode),
	}
	e.nominal = make([]float64, net.NumLinks())
	e.linkNames = make([]string, net.NumLinks())
	e.links = make([]linkState, net.NumLinks())
	for i := range e.nominal {
		id := netsim.LinkID(i)
		e.nominal[i] = net.Link(id).Capacity
		e.linkNames[i] = net.LinkName(id)
	}
	e.registerMetrics()
	if diag != nil {
		diag.SetIncidentHook(e.onIncident)
	}
	return e
}

func (e *Engine) registerMetrics() {
	if e.reg == nil {
		return
	}
	for i, name := range actionNames {
		e.mActions[i] = e.reg.Counter("mccs_remediation_actions_total", "actions",
			telemetry.L("action", name))
	}
	e.mQuar = e.reg.Counter("mccs_remediation_quarantines_total", "links")
	e.mReadmit = e.reg.Counter("mccs_remediation_readmissions_total", "links")
	e.mSuppressed = e.reg.Counter("mccs_remediation_suppressed_total", "opportunities")
	e.gQuar = e.reg.Gauge("mccs_remediation_quarantined_links", "links")
	e.hTTR = e.reg.Histogram("mccs_remediation_ttr", "ns",
		[]float64{1e5, 1e6, 5e6, 1e7, 5e7, 1e8, 1e9})
}

// onIncident is the diagnosis hook. It runs inside the recorder tap /
// end-of-instant sweep, so it only copies and queues — the tick acts.
func (e *Engine) onIncident(in *diagnosis.Incident) {
	if !in.Class.Remediable() {
		return // reconfig stalls, queueing, unknown
	}
	e.queue = append(e.queue, causeEvent{
		class: in.Class, det: in.Detector,
		link: in.Link, comm: in.Comm, rank: in.Rank,
		tenant: in.Tenant, at: in.Detected,
	})
}

// Start spawns the control-loop daemon; it runs until stop fires.
func (e *Engine) Start(stop *sim.Event) {
	e.s.GoDaemon("remediation", func(p *sim.Proc) {
		for stop == nil || !stop.Done() {
			p.Sleep(e.cfg.Interval)
			e.tick(p)
		}
	})
}

// tick is one control-loop pass: drain verdicts, walk the per-link
// state machines, run due ladder rungs, then the non-link episodes.
func (e *Engine) tick(p *sim.Proc) {
	now := e.s.Now()
	e.drainQueue(now)
	e.scanLinks(now)
	e.actOnLinks(p, now)
	e.actOnCauses(p, now)
	e.closeQuietEpisodes(now)
}

// drainQueue folds queued diagnosis verdicts into link and cause state.
func (e *Engine) drainQueue(now sim.Time) {
	for i := range e.queue {
		ev := &e.queue[i]
		switch ev.class {
		case diagnosis.ClassCongestedLink:
			if ev.link >= 0 && int(ev.link) < len(e.links) {
				st := &e.links[ev.link]
				st.verdict = true
				// A verdict is stronger evidence than a capacity dip:
				// quarantine immediately rather than waiting out the
				// suspect ticks — but only while the link is actually
				// degraded right now. Incident detection can lag the
				// fault; a stale verdict for an already-healed link must
				// not re-quarantine it.
				if e.degraded(netsim.LinkID(ev.link)) &&
					(st.phase == phaseHealthy || st.phase == phaseSuspect) {
					e.quarantine(netsim.LinkID(ev.link), ev.at, now)
				}
			}
		case diagnosis.ClassSlowGPU:
			e.openEpisode(epKey{class: ev.class, comm: ev.comm, entity: ev.rank}, ev, now)
		case diagnosis.ClassTenantContention:
			e.openEpisode(epKey{class: ev.class, entity: -1, tenant: ev.tenant}, ev, now)
		}
	}
	e.queue = e.queue[:0]
}

func (e *Engine) openEpisode(k epKey, ev *causeEvent, now sim.Time) {
	ep := e.eps[k]
	if ep == nil {
		ep = &episode{opened: ev.at, nextAllowed: now}
		e.eps[k] = ep
		e.epOrd = append(e.epOrd, k)
	}
	ep.lastSeen = now
}

// degraded reports whether the capacity link l has left for managed
// traffic — its capacity minus the unmanaged (external) load on it — is
// below nominal minus tolerance. A capacity dip and a persistent external
// flow trip the same rule.
func (e *Engine) degraded(l netsim.LinkID) bool {
	if e.nominal[l] <= 0 {
		return false
	}
	left := e.dep.Cluster.Net.Link(l).Capacity - e.dep.Fabric.ExternalRate(l)
	return left < e.nominal[l]*(1-e.cfg.LinkTolerance)
}

// scanLinks walks every link's quarantine state machine off the fabric
// alone; verdict-driven quarantines happened in drainQueue.
func (e *Engine) scanLinks(now sim.Time) {
	for i := range e.links {
		st := &e.links[i]
		if e.nominal[i] <= 0 {
			continue
		}
		degraded := e.degraded(netsim.LinkID(i))
		switch st.phase {
		case phaseHealthy:
			if degraded {
				st.phase = phaseSuspect
				st.suspect = 1
			}
		case phaseSuspect:
			if !degraded {
				st.phase = phaseHealthy
				st.suspect = 0
			} else if st.suspect++; st.suspect >= e.cfg.SuspectAfter {
				e.quarantine(netsim.LinkID(i), now, now)
			}
		case phaseQuarantined:
			if !degraded {
				st.phase = phaseProbation
				st.clean = 1
			}
		case phaseProbation:
			if degraded {
				// Relapse: same episode, same backoff ladder.
				st.phase = phaseQuarantined
				st.clean = 0
			} else if st.clean++; st.clean >= e.cfg.ProbationAfter {
				e.readmit(netsim.LinkID(i), now)
			}
		}
	}
}

// quarantine moves a link into quarantine and opens its episode.
// detected is when the evidence first appeared (verdict detection time
// or this tick for capacity scans).
func (e *Engine) quarantine(l netsim.LinkID, detected, now sim.Time) {
	st := &e.links[l]
	if st.phase == phaseQuarantined {
		return
	}
	relapse := st.phase == phaseProbation
	st.phase = phaseQuarantined
	st.suspect, st.clean = 0, 0
	if !relapse {
		st.ep = episode{opened: detected, nextAllowed: now}
		e.quarantined++
		e.mQuar.Inc()
		e.gQuar.Set(float64(e.activeQuarantines()))
		e.record(ActionRecord{
			At: now, Action: "quarantine", Cause: "congested-link",
			Link: int32(l), LinkName: e.linkNames[l], Comm: 0, Rank: -1,
			Detected: detected,
		})
		e.emit(trace.RemedQuarantine, now, int32(l), 0, -1)
	}
}

// readmit returns a probationary link to service and closes its episode.
func (e *Engine) readmit(l netsim.LinkID, now sim.Time) {
	st := &e.links[l]
	st.phase = phaseHealthy
	st.suspect, st.clean = 0, 0
	st.verdict = false
	e.mReadmit.Inc()
	e.gQuar.Set(float64(e.activeQuarantines()))
	ttr := now.Sub(st.ep.opened)
	if e.hTTR != nil {
		e.hTTR.Observe(float64(ttr))
	}
	e.record(ActionRecord{
		At: now, Action: "readmit", Cause: "congested-link",
		Link: int32(l), LinkName: e.linkNames[l], Comm: 0, Rank: -1,
		Detected: st.ep.opened, Recovered: now,
		Detail: fmt.Sprintf("time-to-recover %v", ttr),
	})
	e.emit(trace.RemedReadmit, now, int32(l), 0, -1)
	st.ep = episode{}
}

func (e *Engine) activeQuarantines() int {
	n := 0
	for i := range e.links {
		if e.links[i].phase == phaseQuarantined || e.links[i].phase == phaseProbation {
			n++
		}
	}
	return n
}

// actOnLinks runs the escalation ladder for each quarantined link whose
// backoff allows it and which still carries managed traffic. A tick with
// no rung due allocates nothing: the move set is built only when one is.
func (e *Engine) actOnLinks(p *sim.Proc, now sim.Time) {
	for i := range e.links {
		st := &e.links[i]
		if st.phase != phaseQuarantined {
			continue
		}
		l := netsim.LinkID(i)
		// The ladder only fires while some communicator still routes
		// over the quarantined link: a successful move quiesces it.
		if !e.dep.RoutesOver(l) {
			continue
		}
		if st.ep.attempts >= e.cfg.MaxActions {
			e.suppress()
			continue
		}
		if now < st.ep.nextAllowed {
			continue
		}
		rung := min(st.ep.attempts, 2)
		for _, ci := range e.dep.View() {
			aff := policy.AffectedConns(e.dep, ci, l)
			if len(aff) == 0 {
				continue
			}
			switch rung {
			case 0:
				// Re-pin onto clean equal-cost paths where path diversity
				// exists, reverse the rings where it does not.
				code := trace.RemedRepin
				if !policy.Repin(e.dep, ci, aff, l) {
					if _, err := policy.Reverse(e.dep, ci.ID); err != nil {
						continue // a baseline deployment cannot reconfigure
					}
					code = trace.RemedReverse
				}
				e.record(ActionRecord{
					At: now, Action: trace.RemedName(code), Cause: "congested-link",
					Link: int32(l), LinkName: e.linkNames[l], Comm: int32(ci.ID), Rank: -1,
					Escalation: st.ep.attempts, Detected: st.ep.opened,
					Detail: fmt.Sprintf("moved %d connections off %s", len(aff), e.linkNames[l]),
				})
				e.emit(code, now, int32(l), int32(ci.ID), -1)
			case 1:
				if err := e.ctrl.Autotune(p, ci.ID, policy.AutotuneOptions{
					Bytes:       e.cfg.RetuneBytes,
					MaxChannels: e.cfg.RetuneMaxChannels,
				}); err != nil {
					continue
				}
				e.record(ActionRecord{
					At: now, Action: "retune", Cause: "congested-link",
					Link: int32(l), LinkName: e.linkNames[l], Comm: int32(ci.ID), Rank: -1,
					Escalation: st.ep.attempts, Detected: st.ep.opened,
				})
				e.emit(trace.RemedRetune, now, int32(l), int32(ci.ID), -1)
			case 2:
				if err := policy.Degrade(e.dep, ci); err != nil {
					continue
				}
				e.record(ActionRecord{
					At: now, Action: "degrade", Cause: "congested-link",
					Link: int32(l), LinkName: e.linkNames[l], Comm: int32(ci.ID), Rank: -1,
					Escalation: st.ep.attempts, Detected: st.ep.opened,
					Detail: "reduced to single-channel ECMP strategy",
				})
				e.emit(trace.RemedDegrade, now, int32(l), int32(ci.ID), -1)
			}
		}
		st.ep.nextAllowed = now.Add(st.ep.backoff(&e.cfg))
		st.ep.attempts++
	}
}

// actOnCauses runs the non-link episodes (stragglers, contention/SLO)
// in insertion order.
func (e *Engine) actOnCauses(p *sim.Proc, now sim.Time) {
	for _, k := range e.epOrd {
		ep := e.eps[k]
		if ep == nil {
			continue
		}
		if ep.attempts >= e.cfg.MaxActions {
			e.suppress()
			continue
		}
		if now < ep.nextAllowed {
			continue
		}
		switch k.class {
		case diagnosis.ClassSlowGPU:
			// Re-tune the communicator the verdict names; Autotune fails,
			// and the rung is skipped, if that communicator is gone.
			if err := e.ctrl.Autotune(p, spec.CommID(k.comm), policy.AutotuneOptions{
				Bytes:       e.cfg.RetuneBytes,
				MaxChannels: e.cfg.RetuneMaxChannels,
			}); err != nil {
				continue
			}
			e.record(ActionRecord{
				At: now, Action: "retune", Cause: "slow-gpu",
				Link: -1, Comm: k.comm, Rank: k.entity,
				Escalation: ep.attempts, Detected: ep.opened,
				Detail: fmt.Sprintf("re-tuned around straggling rank %d", k.entity),
			})
			e.emit(trace.RemedRetune, now, -1, k.comm, k.entity)
		case diagnosis.ClassTenantContention:
			if err := e.ctrl.ApplyFFA(); err != nil {
				continue
			}
			e.record(ActionRecord{
				At: now, Action: "ffa", Cause: "tenant-contention",
				Link: -1, Comm: 0, Rank: -1, Tenant: k.tenant,
				Escalation: ep.attempts, Detected: ep.opened,
				Detail: "re-ran fair flow assignment",
			})
			e.emit(trace.RemedFFA, now, -1, 0, -1)
		}
		ep.nextAllowed = now.Add(ep.backoff(&e.cfg))
		ep.attempts++
	}
}

// closeQuietEpisodes drops non-link episodes with no fresh evidence for
// EpisodeQuiet, so a genuine recurrence starts a fresh ladder.
func (e *Engine) closeQuietEpisodes(now sim.Time) {
	if len(e.epOrd) == 0 {
		return
	}
	out := e.epOrd[:0]
	for _, k := range e.epOrd {
		ep := e.eps[k]
		if ep != nil && now.Sub(ep.lastSeen) > sim.Duration(e.cfg.EpisodeQuiet) {
			delete(e.eps, k)
			continue
		}
		out = append(out, k)
	}
	e.epOrd = out
}

func (e *Engine) suppress() {
	e.suppressed++
	e.mSuppressed.Inc()
}

func (e *Engine) record(a ActionRecord) {
	a.ID = len(e.events)
	e.events = append(e.events, a)
	if a.Action != "quarantine" && a.Action != "readmit" {
		for i, name := range actionNames {
			if name == a.Action {
				e.mActions[i].Inc()
				break
			}
		}
	}
}

// emit writes one KindRemediation span to the flight recorder. Label
// references the static remedNames entry, so emitting never allocates.
func (e *Engine) emit(code int32, at sim.Time, link, comm, rank int32) {
	if e.rec == nil {
		return
	}
	e.rec.Emit(trace.Span{
		Kind: trace.KindRemediation, Op: code,
		Start: at, End: at,
		Host: -1, GPU: -1, Comm: comm, Rank: rank, Peer: -1,
		Src: link, Dst: -1,
		Label: trace.RemedName(code),
	})
}

// Finish closes the run and returns the report. Idempotent.
func (e *Engine) Finish() *Report {
	e.finished = true
	return &Report{
		Actions:      append([]ActionRecord(nil), e.events...),
		Quarantines:  e.quarantined,
		Readmissions: e.readmissions(),
		Suppressed:   e.suppressed,
		End:          e.s.Now(),
	}
}

func (e *Engine) readmissions() int {
	n := 0
	for i := range e.events {
		if e.events[i].Action == "readmit" {
			n++
		}
	}
	return n
}
