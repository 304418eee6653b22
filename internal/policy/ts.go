package policy

import (
	"fmt"
	"time"

	"mccs/internal/trace"
	"mccs/internal/transport"
)

// ComputeTS derives a time-window traffic schedule for *other*
// applications from a prioritized application's collective trace (paper
// example #4, after CASSINI): find the application's iteration period and
// the phase window in which it communicates, then allow others to send
// only outside that window.
//
// minEntries trace records are needed to estimate the period reliably.
const minTSEntries = 4

// tsWindow bounds how much history the estimator considers: schedules
// must reflect the application's *current* cadence, not its congested
// past (an over-estimated busy length degenerates to an always-allowed
// schedule).
const tsWindow = 48

// ComputeTS analyzes the op-lifecycle spans (one per executed collective,
// as returned by Deployment.CommTrace) and returns the complementary
// schedule. guard pads the busy window on both sides to absorb jitter.
func ComputeTS(spans []trace.Span, guard time.Duration) (transport.Schedule, error) {
	if len(spans) < minTSEntries {
		return transport.Schedule{}, fmt.Errorf("policy: trace has %d entries, need >= %d", len(spans), minTSEntries)
	}
	if len(spans) > tsWindow {
		spans = spans[len(spans)-tsWindow:]
	}
	// Iteration period: mean gap between consecutive collective starts.
	// Training loops issue the same collective pattern every iteration,
	// so consecutive-start deltas cluster around the true period.
	var gaps time.Duration
	for i := 1; i < len(spans); i++ {
		gaps += spans[i].Start.Sub(spans[i-1].Start)
	}
	period := gaps / time.Duration(len(spans)-1)
	if period <= 0 {
		return transport.Schedule{}, fmt.Errorf("policy: non-positive period estimate")
	}

	// Busy phase: where within the period the collectives run. Use the
	// most recent collective as the phase anchor and a robust upper
	// percentile of the recent durations as the busy length (the max is
	// too sensitive to one congested outlier).
	last := spans[len(spans)-1]
	phase := time.Duration(last.Start) % period
	durs := make([]time.Duration, 0, len(spans))
	for _, sp := range spans {
		durs = append(durs, sp.Dur())
	}
	sortDurations(durs)
	busy := durs[(len(durs)*9)/10]
	busy += 2 * guard
	if busy >= period {
		// The prioritized app communicates all the time; no idle window
		// exists. An empty schedule (always allowed) is the only safe
		// answer — TS cannot help here.
		return transport.Schedule{}, nil
	}

	// Others may transmit in [phase+busy-guard, phase+period-guard),
	// i.e. the complement of the busy window. Normalize into [0,period).
	start := phase + busy - guard
	length := period - busy
	start = start % period
	sched := transport.Schedule{Period: period}
	if start+length <= period {
		sched.Slots = []transport.Slot{{Offset: start, Length: length}}
	} else {
		first := period - start
		sched.Slots = []transport.Slot{
			{Offset: 0, Length: length - first},
			{Offset: start, Length: first},
		}
	}
	if err := sched.Validate(); err != nil {
		return transport.Schedule{}, fmt.Errorf("policy: derived invalid TS schedule: %w", err)
	}
	return sched, nil
}

// IdleFraction reports how much of the estimated period the traced
// application leaves the network idle — the headroom TS can hand to other
// tenants.
func IdleFraction(spans []trace.Span) float64 {
	if len(spans) < 2 {
		return 0
	}
	var gaps, busy time.Duration
	for i := 1; i < len(spans); i++ {
		gaps += spans[i].Start.Sub(spans[i-1].Start)
	}
	period := gaps / time.Duration(len(spans)-1)
	for _, sp := range spans {
		busy += sp.Dur()
	}
	meanBusy := busy / time.Duration(len(spans))
	if period <= 0 {
		return 0
	}
	f := 1 - float64(meanBusy)/float64(period)
	if f < 0 {
		f = 0
	}
	return f
}

func sortDurations(a []time.Duration) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
