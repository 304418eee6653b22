package telemetry

import (
	"mccs/internal/sim"
)

// SLO accounting: per sampling window, compare each tenant's achieved
// share of a fabric link against its fairness entitlement and record a
// violation when it falls short.
//
// Entitlement model: on a link carrying flows from n managed tenants,
// each tenant is entitled to capacity/n — the FFA fair share (PFA
// tenants with reserved routes are entitled to the same floor; the
// reservation is about *which* link they use, not a larger share of it).
// External (unmanaged, strict-priority) traffic is deliberately NOT
// discounted from the entitlement: bandwidth it steals from a managed
// tenant is precisely the deficit the provider wants surfaced, which is
// the Fig. 7 degradation story.
//
// A tenant is only eligible for a violation on a link when the fabric's
// committed water-fill says at least one of its flows is *bottlenecked*
// there — a tenant that is demand-limited (small messages, NIC-bound
// elsewhere) is not a victim of that link, however little it pushes
// through it. The link must also be saturated (utilization >=
// sloSaturationMin): on an idle link a low share is lack of demand, not
// contention.
//
// Each (tenant, link, window) triple is reported at most once, at the
// first instant within the window where the condition holds.

// The violation predicate's two thresholds.
const (
	// sloTolerance is the fraction below entitlement tolerated before a
	// violation fires (achieved < 95% of entitlement).
	sloTolerance = 0.05
	// sloSaturationMin is the link-utilization floor for eligibility.
	sloSaturationMin = 0.9
)

// TenantShare is one tenant's observed state on one link at one instant.
type TenantShare struct {
	Tenant       string
	Bps          float64
	Bottlenecked bool // some flow of this tenant is frozen at this link
}

// Violation is one recorded SLO breach.
type Violation struct {
	T           sim.Time     // first detection instant within the window
	Window      sim.Duration // sampling window the breach belongs to
	Tenant      string
	Link        int32
	LinkName    string
	AchievedBps float64
	EntitledBps float64
	DeficitBps  float64
}

// reportedIn is the dedup state of one (tenant, link) pair: the last
// window a violation was recorded in. Time only moves forward, so that is
// all "already reported in this window" needs.
type reportedIn struct {
	tenant string
	window int64
}

// maxViolations bounds the in-memory violation log; overflow is counted.
const maxViolations = 1 << 12

// SLOTracker accumulates violations. It is fed by the fabric collector
// whenever the allocation, the tenant table or the window index moved —
// between those a link reads the same and the (tenant, link, window) dedup
// would drop every re-report — and is inert (window == 0) until a sampler
// starts.
type SLOTracker struct {
	reg    *Registry
	window sim.Duration
	// reported[link] holds the pairs that have violated on the link, in
	// first-violation order (a handful at most: tenants sharing one link).
	reported   [][]reportedIn
	violations []Violation
	dropped    int
	counters   map[string]*Counter
}

func newSLOTracker() *SLOTracker {
	return &SLOTracker{counters: make(map[string]*Counter)}
}

// WindowIndex returns the number of the sampling window now falls in — the
// window part of the violation dedup key — and 0 while the tracker is
// inert.
func (t *SLOTracker) WindowIndex(now sim.Time) int64 {
	if t == nil || t.window <= 0 {
		return 0
	}
	return int64(now) / int64(t.window)
}

// ObserveLink evaluates the violation predicate for one link. shares
// must list every managed tenant with at least one flow crossing the
// link, in deterministic (first-seen in flow-ID) order — the order of the
// violation log, with links in ascending order; the caller may reuse the
// slice. link is a dense non-negative ID and now never decreases from one
// call to the next. No-op until a sampler has set the window.
func (t *SLOTracker) ObserveLink(now sim.Time, link int32, name string, capBps, totalBps float64, shares []TenantShare) {
	if t == nil || t.window <= 0 || link < 0 || capBps <= 0 || len(shares) == 0 {
		return
	}
	if totalBps/capBps < sloSaturationMin {
		return
	}
	entitled := capBps / float64(len(shares))
	floor := entitled * (1 - sloTolerance)
	w := t.WindowIndex(now)
	for _, sh := range shares {
		if !sh.Bottlenecked || sh.Bps >= floor || !t.firstIn(w, link, sh.Tenant) {
			continue
		}
		c, ok := t.counters[sh.Tenant]
		if !ok {
			c = t.reg.Counter("mccs_slo_violations_total", "violations", L("tenant", sh.Tenant))
			t.counters[sh.Tenant] = c
		}
		c.Inc()
		if len(t.violations) >= maxViolations {
			t.dropped++
			continue
		}
		t.violations = append(t.violations, Violation{
			T: now, Window: t.window,
			Tenant: sh.Tenant, Link: link, LinkName: name,
			AchievedBps: sh.Bps, EntitledBps: entitled, DeficitBps: entitled - sh.Bps,
		})
	}
}

// firstIn reports whether (tenant, link) has not been reported in window w
// yet, and marks it reported.
func (t *SLOTracker) firstIn(w int64, link int32, tenant string) bool {
	for int(link) >= len(t.reported) {
		t.reported = append(t.reported, nil)
	}
	rs := t.reported[link]
	for i := range rs {
		if rs[i].tenant == tenant {
			if rs[i].window == w {
				return false
			}
			rs[i].window = w
			return true
		}
	}
	t.reported[link] = append(rs, reportedIn{tenant: tenant, window: w})
	return true
}

// Violations returns the recorded breaches in detection order.
func (t *SLOTracker) Violations() []Violation {
	if t == nil {
		return nil
	}
	return t.violations
}

// Dropped returns how many violations were discarded to the cap.
func (t *SLOTracker) Dropped() int {
	if t == nil {
		return 0
	}
	return t.dropped
}
