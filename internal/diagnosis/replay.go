package diagnosis

import (
	"mccs/internal/telemetry"
	"mccs/internal/trace"
)

// Analyze replays a trace capture (and optionally a telemetry series,
// for SLO violations) through the same detectors the live engine runs.
// Recorder spans are emitted at completion, so End is non-decreasing in
// ring order: the replay advances its clock span by span, running the
// detector sweep at every instant boundary — the incident timeline
// matches what a live engine attached to that run would have produced
// (ring wrap aside; the report's Dropped count flags that).
func Analyze(rec trace.Recording, se *telemetry.Series, cfg Config) *Report {
	e := newEngine(cfg)
	e.meta = &rec.Meta
	e.dropped = rec.Dropped

	var viols []telemetry.Violation
	if se != nil {
		viols = se.Violations
	}
	vi := 0
	for i := range rec.Spans {
		sp := &rec.Spans[i]
		if sp.End > e.now {
			e.sweep() // close out the previous instant
			e.now = sp.End
		}
		for vi < len(viols) && viols[vi].T <= e.now {
			e.feedViolation(&viols[vi])
			vi++
		}
		e.onSpan(sp)
	}
	for ; vi < len(viols); vi++ {
		if viols[vi].T > e.now {
			e.now = viols[vi].T
		}
		e.feedViolation(&viols[vi])
	}
	return e.Finish()
}
