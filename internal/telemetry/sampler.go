package telemetry

import (
	"time"

	"mccs/internal/sim"
)

// DefaultInterval is the sampling period used when callers pass 0.
const DefaultInterval = 100 * time.Millisecond

// maxSamples bounds the in-memory series. At the default interval that
// is over an hour of simulated time; overflow keeps the earliest samples
// and counts the rest as dropped, so the time base of what is kept stays
// exact.
const maxSamples = 1 << 15

// Sample is one snapshot of every registry column at a sampling-window
// boundary.
type Sample struct {
	T sim.Time
	V []float64
}

// Sampler snapshots the registry at a fixed sim-time interval.
//
// It deliberately schedules no events: a self-rearming timer would keep
// Scheduler.Run from ever draining and would perturb the event schedule.
// Instead it registers an end-of-instant hook. Registry state is
// piecewise-constant between instants, so when the clock is about to
// move from instant t to a later one, every sampling boundary in (t',
// t] — where t' is the previous instant — took the value the registry
// held at t'. The hook emits those boundaries from the last capture,
// emits/overwrites the boundary falling exactly on t with live values,
// and captures — reads every column — only when the capture can still be
// needed: on a boundary instant, and on a pass whose next pending event
// (Scheduler.NextEventAt) lies at or beyond the next boundary, which is
// the only kind of pass whose values a later backfill reads. That is the
// last pass of the last instant before each boundary plus the boundary
// itself: about two captures per interval however many instants it spans.
// Collectors still run on every pass (they date what they publish by the
// instant) and gate themselves. Hooks re-run before every clock advance
// and may run several times per instant; the emit logic is idempotent (the
// last capture per instant wins), as OnInstantEnd requires.
type Sampler struct {
	s        *sim.Scheduler
	reg      *Registry
	interval sim.Duration

	next    sim.Time  // earliest boundary not yet finalized
	prev    []float64 // the last capture
	cur     []float64 // scratch for the next one; swapped with prev
	copied  int64     // columns read by captures
	samples []Sample
	dropped int
}

// StartSampler attaches a sampler for reg to s. interval <= 0 selects
// DefaultInterval. Call it after the instrumented layers are built (so
// the fabric's own end-of-instant flusher is registered first and rate
// state is settled when the sampler reads it).
func StartSampler(s *sim.Scheduler, reg *Registry, interval sim.Duration) *Sampler {
	if interval <= 0 {
		interval = DefaultInterval
	}
	sm := &Sampler{s: s, reg: reg, interval: interval, next: s.Now()}
	reg.SLO.window = interval
	s.OnInstantEnd(sm.flush)
	return sm
}

// flush is the end-of-instant hook; see the type comment for the
// backfill and capture discipline.
func (sm *Sampler) flush() {
	now := sm.s.Now()
	// Boundaries strictly before the current instant saw the registry as
	// it was at the previous instant.
	for sm.next < now {
		sm.emit(sm.next, sm.prev)
		sm.next = sm.next.Add(sm.interval)
	}
	sm.reg.collect(now)
	n := len(sm.samples)
	boundary := sm.next == now
	rerun := !boundary && n > 0 && sm.samples[n-1].T == now
	if !boundary && !rerun && sm.s.NextEventAt() < sm.next {
		// Another pass, or an instant before the boundary, follows: nothing
		// reads this pass's values.
		return
	}
	sm.cur = sm.reg.readInto(sm.cur[:0])
	sm.copied += int64(len(sm.cur))
	if boundary {
		sm.emit(now, sm.cur)
		sm.next = sm.next.Add(sm.interval)
	} else if rerun {
		// Re-run within the same instant after more work executed:
		// overwrite the boundary sample with the final values.
		sm.samples[n-1].V = append(sm.samples[n-1].V[:0], sm.cur...)
	}
	sm.prev, sm.cur = sm.cur, sm.prev
}

func (sm *Sampler) emit(t sim.Time, v []float64) {
	if len(sm.samples) >= maxSamples {
		sm.dropped++
		return
	}
	sm.samples = append(sm.samples, Sample{T: t, V: append([]float64(nil), v...)})
}

// Samples returns the recorded series, oldest first. Samples taken early
// in the run may be narrower than the final schema (metrics registered
// later); missing trailing columns read as zero.
func (sm *Sampler) Samples() []Sample {
	if sm == nil {
		return nil
	}
	return sm.samples
}

// ColumnsCopied returns how many column values the sampler's captures
// have read out of the registry — the observer's own cost, as a count.
func (sm *Sampler) ColumnsCopied() int64 {
	if sm == nil {
		return 0
	}
	return sm.copied
}

// Registry returns the registry the sampler snapshots.
func (sm *Sampler) Registry() *Registry {
	if sm == nil {
		return nil
	}
	return sm.reg
}
