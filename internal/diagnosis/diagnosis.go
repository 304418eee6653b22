// Package diagnosis is the online health engine of the MCCS service: it
// turns the raw observability planes (internal/trace spans, internal/
// telemetry samples and SLO events) into *answers* — "this collective is
// hung", "rank 3's GPU is slow", "link spine0-leaf1 is degraded" — each
// with a root-cause class, a blamed entity and a confidence.
//
// The engine is a streaming consumer: live, it taps the flight recorder
// (trace.Recorder.SetTap) and piggybacks on the scheduler's end-of-
// instant hook, so attaching it schedules no simulator events and cannot
// perturb the simulated schedule — chaos trace hashes and same-seed
// exports are byte-identical with the doctor on or off. Post hoc, the
// same detectors replay a trace Recording plus a telemetry Series
// (Analyze), which is what `mccs doctor` does to a capture. A replay of a
// recording whose ring did not wrap raises the live engine's incidents;
// a wrapped ring lost evidence, and the report says so.
//
// Detectors (engine.go):
//
//   - stall: per-(comm,seq) watchdog deadlines from a rolling per-op
//     baseline; fires online while the op is still pending.
//   - straggler: per-rank step Busy-time outliers vs the cross-rank
//     median, coalesced into per-rank episodes. Busy counts only local
//     GPU work, so network faults cannot masquerade as slow GPUs.
//   - degraded link: flow rate samples whose bottleneck link reports a
//     capacity below the link's nominal capacity (achieved-vs-allocated).
//   - SLO breach: sustained entitlement-deficit episodes from the
//     telemetry plane's violation stream.
//   - reconfiguration: Fig. 4 barrier phase spans, one episode per
//     (comm, generation being built).
//   - admission queueing: orchestrator queue spans above a floor.
//
// The link, reconfiguration, straggler and SLO detectors share one
// episode table keyed by (detector, scope). A stalled op is classified
// (classifyStall, engine.go) from its evidence — reconfiguration barrier
// overlap, per-rank busy skew, the gating flow's dominant bottleneck
// (trace.Bottlenecks, the fold trace attribution uses) — into one of the
// Class values with a blamed entity.
//
// Everything is deterministic: incidents are discovered in span-emission
// and insertion order (never map order), and the report writers
// (report.go) emit byte-identical output for a fixed seed.
package diagnosis

import (
	"fmt"
	"time"

	"mccs/internal/sim"
)

// Class is a root-cause classification.
type Class uint8

const (
	// ClassUnknown means the incident was detected but no evidence
	// singled out a cause.
	ClassUnknown Class = iota
	// ClassSlowGPU blames a rank whose local GPU work ran long.
	ClassSlowGPU
	// ClassCongestedLink blames a fabric link running below its nominal
	// capacity (flap, partial failure).
	ClassCongestedLink
	// ClassTenantContention blames competing traffic on a shared link.
	ClassTenantContention
	// ClassReconfigStall blames the controller: the op overlapped a
	// reconfiguration barrier (drain/teardown/rebuild).
	ClassReconfigStall
	// ClassAdmissionQueueing blames the admission queue: the job waited
	// above the queueing floor before placement.
	ClassAdmissionQueueing

	numClasses = int(ClassAdmissionQueueing) + 1
)

var classNames = [...]string{
	"unknown", "slow-gpu", "congested-link", "tenant-contention",
	"reconfig-stall", "admission-queueing",
}

func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return "?"
}

// Remediable reports whether remediation acts on incidents of class c.
func (c Class) Remediable() bool {
	return c == ClassCongestedLink || c == ClassSlowGPU || c == ClassTenantContention
}

// Detector identifies which detector raised an incident.
type Detector uint8

const (
	// DetStall is the per-(comm,seq) watchdog.
	DetStall Detector = iota
	// DetStraggler is the per-rank busy-time outlier detector.
	DetStraggler
	// DetLink is the achieved-vs-nominal link capacity detector.
	DetLink
	// DetSLO is the sustained SLO-breach episode detector.
	DetSLO
	// DetReconfig is the reconfiguration-barrier episode detector.
	DetReconfig
	// DetQueue is the admission-queue wait detector.
	DetQueue
)

var detectorNames = [...]string{"stall", "straggler", "link", "slo", "reconfig", "queue"}

func (d Detector) String() string {
	if int(d) < len(detectorNames) {
		return detectorNames[d]
	}
	return "?"
}

// Incident is one detected health event with its root-cause attribution.
// Identity fields use -1 for "not applicable" (Comm uses 0, matching
// trace.Span).
type Incident struct {
	ID       int
	Detector Detector
	Class    Class
	// Start/End bound the incident in sim time; End extends while the
	// episode is live and freezes when it closes.
	Start, End sim.Time
	// Detected is when the detector first raised the incident; for
	// watchdog stalls this precedes op completion (online detection).
	Detected sim.Time
	Comm     int32
	Seq      uint64
	Op       int32 // collective.Op code, -1 when n/a
	Rank     int32 // blamed rank, -1
	GPU      int32 // blamed GPU, -1
	Link     int32 // blamed link, -1
	LinkName string
	Tenant   string // owning/affected tenant, "" unknown
	// Blamed names the blamed entity in operator terms: "rank 3 (gpu 5)",
	// "link leaf0-spine1", "competing traffic on ...", "controller",
	// "admission queue".
	Blamed string
	// Confidence in (0,1]: a deterministic ratio-derived score (e.g.
	// 1 - median/busy for stragglers — the fraction of the blamed rank's
	// busy time attributable to the slowdown).
	Confidence float64
	// Evidence counts supporting observations (ops, samples, spans).
	Evidence int
	Detail   string

	// RemediatedAt is when the self-healing engine's first matching
	// recovery action fired, and RecoveredAt when the blamed entity
	// returned to service (a quarantined link re-admitted). Both are
	// matched from trace.KindRemediation spans at Finish; zero means the
	// event never happened (runs without remediation attached leave them
	// unset, keeping reports byte-identical to pre-remediation output).
	RemediatedAt sim.Time
	RecoveredAt  sim.Time

	open bool
}

// Dur returns the incident's duration.
func (in *Incident) Dur() sim.Duration { return in.End.Sub(in.Start) }

// TimeToRecover returns Detected→RecoveredAt (falling back to
// RemediatedAt when re-admission never happened, e.g. non-link causes),
// and false when no remediation matched this incident.
func (in *Incident) TimeToRecover() (sim.Duration, bool) {
	switch {
	case in.RecoveredAt != 0:
		return in.RecoveredAt.Sub(in.Detected), true
	case in.RemediatedAt != 0:
		return in.RemediatedAt.Sub(in.Detected), true
	}
	return 0, false
}

// Config tunes the detectors. The zero value is not useful; start from
// DefaultConfig.
type Config struct {
	// StallMultiplier scales the rolling per-(comm,op,size-class)
	// baseline mean into a watchdog deadline.
	StallMultiplier float64
	// StallFloor is the minimum watchdog deadline, so tiny ops with
	// microsecond baselines do not fire on scheduling noise.
	StallFloor sim.Duration
	// MinBaselineOps is how many completed ops a baseline needs before
	// the watchdog arms for its cohort.
	MinBaselineOps int

	// StragglerRatio flags a rank whose per-op busy time exceeds this
	// multiple of the cross-rank median. Fault injection slows GPUs by
	// >= 2x, so the default 1.6 separates cleanly.
	StragglerRatio float64
	// StragglerMinBusy is the absolute busy floor below which ratio
	// outliers are ignored.
	StragglerMinBusy sim.Duration

	// LinkTolerance is the fractional headroom below nominal capacity
	// before a bottleneck sample counts as a degraded link.
	LinkTolerance float64

	// QuietGap closes a degraded-link episode after this much sim time
	// without fresh evidence.
	QuietGap sim.Duration

	// SLOMinWindows is how many near-consecutive violation windows a
	// (tenant, link) needs before an SLO-breach incident opens.
	SLOMinWindows int
	// SLOMinDeficit is the minimum entitlement-deficit share
	// (deficit/entitled) a violation needs to count as contention
	// evidence; filters self-saturation noise near the tracker's own
	// tolerance.
	SLOMinDeficit float64

	// ExtShare is the external-traffic share of the gating bottleneck
	// above which a stalled op is classified as tenant contention.
	ExtShare float64

	// QueueFloor is the admission-queue wait above which a queue span
	// becomes an incident.
	QueueFloor sim.Duration
}

// DefaultMaxIncidents bounds a run's incident list (a safety valve for
// pathological runs).
const DefaultMaxIncidents = 4096

// DefaultConfig returns the tuning used by the chaos ground-truth tests
// and the CLIs.
func DefaultConfig() Config {
	return Config{
		StallMultiplier:  4,
		StallFloor:       300 * time.Microsecond,
		MinBaselineOps:   3,
		StragglerRatio:   1.6,
		StragglerMinBusy: 1 * time.Microsecond,
		LinkTolerance:    0.05,
		QuietGap:         300 * time.Microsecond,
		SLOMinWindows:    2,
		SLOMinDeficit:    0.2,
		ExtShare:         0.25,
		QueueFloor:       500 * time.Microsecond,
	}
}

// Report is the engine's final output: the incident timeline plus
// detector statistics.
type Report struct {
	Incidents []Incident
	// Spans is how many spans the engine observed; Dropped is the
	// recorder's ring-wrap drop count at finish (replay analyses of a
	// wrapped ring may be missing evidence — the report writers warn).
	Spans   uint64
	Dropped uint64
	// Ops is how many (comm,seq) collectives were tracked to completion;
	// Pending is how many were still open at finish.
	Ops     int
	Pending int
	// Sweeps counts end-of-instant detector sweeps.
	Sweeps uint64
	// End is the last sim time the engine observed.
	End sim.Time
}

// ByClass counts incidents per class.
func (r *Report) ByClass() [numClasses]int {
	var out [numClasses]int
	for i := range r.Incidents {
		out[r.Incidents[i].Class]++
	}
	return out
}

// String is a one-line summary.
func (r *Report) String() string {
	return fmt.Sprintf("doctor: %d incidents over %d spans (%d ops, %d pending, %d dropped)",
		len(r.Incidents), r.Spans, r.Ops, r.Pending, r.Dropped)
}
