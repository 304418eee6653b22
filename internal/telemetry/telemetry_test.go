package telemetry

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"mccs/internal/sim"
)

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "ops")
	g := r.Gauge("x", "ratio")
	h := r.Histogram("x_seconds", "seconds", nil)
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Add(1)
	h.Observe(0.5)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Error("nil handles must read as zero")
	}
	r.AddCollector(func(sim.Time) bool { return false })
	r.NoteComm(1, "a")
	r.SetLinks([]LinkInfo{{ID: 0}})
	if r.TenantIndex(1) != -1 || r.Links() != nil {
		t.Error("nil registry lookups must be empty")
	}
	var sm *Sampler
	if sm.Samples() != nil || sm.Dropped() != 0 || sm.Registry() != nil {
		t.Error("nil sampler accessors must be empty")
	}
	var tr *SLOTracker
	tr.ObserveLink(0, 0, "l", 1, 1, []TenantShare{{Tenant: "a"}})
	if tr.Violations() != nil || tr.Dropped() != 0 {
		t.Error("nil tracker must be inert")
	}
}

func TestCounterMonotonic(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops_total", "ops")
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored: counters never decrease
	c.Add(0)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
}

// Interning: the same (name, labels) identity returns the same handle
// regardless of label order; different labels are distinct metrics.
func TestIntern(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "ops", L("tenant", "a"), L("host", "h0"))
	b := r.Counter("x_total", "ops", L("host", "h0"), L("tenant", "a"))
	if a != b {
		t.Error("label order must not split the metric")
	}
	c := r.Counter("x_total", "ops", L("tenant", "b"), L("host", "h0"))
	if a == c {
		t.Error("different label values must be distinct handles")
	}
	if n := len(r.Schema()); n != 2 {
		t.Errorf("schema has %d columns, want 2", n)
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "seconds", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d", h.Count())
	}
	// Snapshot columns: cumulative buckets + sum + count.
	vals := r.readInto(nil)
	want := []float64{1, 3, 4, 106.05, 5}
	if len(vals) != len(want) {
		t.Fatalf("got %d cols, want %d", len(vals), len(want))
	}
	for i := range want {
		if vals[i] != want[i] {
			t.Errorf("col %d = %g, want %g", i, vals[i], want[i])
		}
	}
}

// ColumnKinds lays the kinds out as Schema lays out its columns, and as
// readInto its values.
func TestColumnKindsMatchSchema(t *testing.T) {
	r := NewRegistry()
	r.Counter("ops_total", "ops", L("tenant", "a"))
	r.Histogram("lat_seconds", "seconds", []float64{0.1, 1, 10})
	r.Gauge("depth", "commands")
	r.Histogram("wait_seconds", "seconds", nil, L("tenant", "a"))
	kinds := r.ColumnKinds(nil)
	cols := r.Schema()
	if len(kinds) != len(cols) || len(kinds) != len(r.readInto(nil)) {
		t.Fatalf("%d kinds, %d schema columns, %d values", len(kinds), len(cols), len(r.readInto(nil)))
	}
	for i, k := range kinds {
		if k.String() != cols[i].Kind {
			t.Errorf("column %d (%s): kind %v, schema says %s", i, cols[i].Name, k, cols[i].Kind)
		}
	}
}

// The emit path must not allocate: telemetry is on in every chaos seed
// and in production-shaped runs, so a single allocation per op would
// dominate the simulator's profile.
func TestEmitZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops_total", "ops", L("tenant", "a"))
	g := r.Gauge("depth", "commands")
	h := r.Histogram("lat_seconds", "seconds", nil)
	var nilC *Counter
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Set(4.5)
		g.Add(-1)
		h.Observe(0.02)
		nilC.Inc()
	}); n != 0 {
		t.Errorf("emit path allocates %v per run, want 0", n)
	}
}

// Sampler backfill: boundaries between instants take the previous
// instant's values; a boundary exactly on an instant takes live values.
func TestSamplerBackfill(t *testing.T) {
	s := sim.New()
	r := NewRegistry()
	Attach(s, r)
	c := r.Counter("ops_total", "ops")
	sm := StartSampler(s, r, 10*time.Millisecond)
	s.Go("work", func(p *sim.Proc) {
		c.Inc() // t=0: counter=1
		p.Sleep(25 * time.Millisecond)
		c.Add(9) // t=25ms: counter=10
		p.Sleep(25 * time.Millisecond)
		c.Add(90) // t=50ms: counter=100 (boundary instant)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	samples := sm.Samples()
	// Boundaries: 0, 10, 20, 30, 40, 50 ms.
	wantT := []sim.Time{0, sim.Time(10 * time.Millisecond), sim.Time(20 * time.Millisecond),
		sim.Time(30 * time.Millisecond), sim.Time(40 * time.Millisecond), sim.Time(50 * time.Millisecond)}
	wantV := []float64{1, 1, 1, 10, 10, 100}
	if len(samples) != len(wantT) {
		t.Fatalf("got %d samples, want %d: %+v", len(samples), len(wantT), samples)
	}
	for i, smp := range samples {
		if smp.T != wantT[i] {
			t.Errorf("sample %d at t=%v, want %v", i, time.Duration(smp.T), time.Duration(wantT[i]))
		}
		if len(smp.V) != 1 || smp.V[0] != wantV[i] {
			t.Errorf("sample %d = %v, want [%g]", i, smp.V, wantV[i])
		}
	}
}

// Determinism: two identical runs produce byte-identical Prometheus and
// JSONL exports.
func TestExportByteDeterminism(t *testing.T) {
	run := func() (string, string) {
		s := sim.New()
		r := NewRegistry()
		Attach(s, r)
		c := r.Counter("mccs_ops_total", "ops", L("tenant", "b"))
		c2 := r.Counter("mccs_ops_total", "ops", L("tenant", "a"))
		g := r.Gauge("mccs_depth", "commands")
		h := r.Histogram("mccs_lat_seconds", "seconds", []float64{0.001, 0.01})
		r.SetLinks([]LinkInfo{{ID: 0, Name: "l0", CapBps: 1e9}})
		sm := StartSampler(s, r, time.Millisecond)
		s.Go("w", func(p *sim.Proc) {
			for i := 0; i < 5; i++ {
				c.Inc()
				c2.Add(2)
				g.Set(float64(i) / 3)
				h.Observe(float64(i) * 0.004)
				p.Sleep(1700 * time.Microsecond)
			}
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		var prom, jsonl bytes.Buffer
		if err := WritePrometheus(&prom, r); err != nil {
			t.Fatal(err)
		}
		if err := WriteJSONL(&jsonl, sm); err != nil {
			t.Fatal(err)
		}
		return prom.String(), jsonl.String()
	}
	p1, j1 := run()
	p2, j2 := run()
	if p1 != p2 {
		t.Error("prometheus exports differ between identical runs")
	}
	if j1 != j2 {
		t.Error("jsonl exports differ between identical runs")
	}
	if !strings.Contains(p1, `mccs_ops_total{tenant="a"} 10`) {
		t.Errorf("prometheus export missing counter:\n%s", p1)
	}
	// Sorted by label string: tenant a before tenant b.
	if strings.Index(p1, `tenant="a"`) > strings.Index(p1, `tenant="b"`) {
		t.Error("prometheus entries not sorted by label")
	}
}

// JSONL round-trip: ReadJSONL recovers schema, links, samples and
// violations exactly.
func TestJSONLRoundTrip(t *testing.T) {
	s := sim.New()
	r := NewRegistry()
	Attach(s, r)
	c := r.Counter("mccs_ops_total", "ops", L("tenant", "a"))
	r.SetLinks([]LinkInfo{{ID: 3, Name: "sw0->sw1", CapBps: 12.5e9}})
	sm := StartSampler(s, r, time.Millisecond)
	s.Go("w", func(p *sim.Proc) {
		c.Inc()
		p.Sleep(2500 * time.Microsecond)
		c.Inc()
		// A violation mid-run lands between samples in the merge.
		r.SLO.ObserveLink(p.Now(), 3, "sw0->sw1", 12.5e9, 12.4e9, []TenantShare{
			{Tenant: "a", Bps: 1e9, Bottlenecked: true},
			{Tenant: "b", Bps: 11e9, Bottlenecked: false},
		})
		p.Sleep(1500 * time.Microsecond)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, sm); err != nil {
		t.Fatal(err)
	}
	se, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if se.Interval != time.Millisecond {
		t.Errorf("interval = %v", se.Interval)
	}
	if len(se.Links) != 1 || se.Links[0].Name != "sw0->sw1" || se.Links[0].CapBps != 12.5e9 {
		t.Errorf("links = %+v", se.Links)
	}
	if len(se.Samples) != len(sm.Samples()) {
		t.Fatalf("samples = %d, want %d", len(se.Samples), len(sm.Samples()))
	}
	for i, smp := range sm.Samples() {
		if se.Samples[i].T != smp.T {
			t.Errorf("sample %d t = %v, want %v", i, se.Samples[i].T, smp.T)
		}
		for j := range smp.V {
			if se.Samples[i].V[j] != smp.V[j] {
				t.Errorf("sample %d col %d = %g, want %g", i, j, se.Samples[i].V[j], smp.V[j])
			}
		}
	}
	if len(se.Violations) != 1 {
		t.Fatalf("violations = %+v", se.Violations)
	}
	v := se.Violations[0]
	if v.Tenant != "a" || v.LinkName != "sw0->sw1" || v.EntitledBps != 6.25e9 || v.DeficitBps != 5.25e9 {
		t.Errorf("violation = %+v", v)
	}
	// Column lookup helpers.
	cols := se.FindCols("mccs_ops_total", L("tenant", ""))
	if len(cols) != 1 || se.LabelValue(cols[0], "tenant") != "a" {
		t.Errorf("FindCols/LabelValue: %v", cols)
	}
	if got := se.Value(se.Samples[len(se.Samples)-1], cols[0]); got != 2 {
		t.Errorf("final counter value = %g, want 2", got)
	}
	if se.Value(Sample{}, 0) != 0 {
		t.Error("narrow sample must read as zero")
	}
}

// The SLO predicate: saturation floor, bottleneck eligibility, tolerance
// band, and once-per-window dedup.
func TestSLOPredicate(t *testing.T) {
	newTracker := func() *SLOTracker {
		r := NewRegistry()
		r.SLO.reg = r
		r.SLO.window = sim.Duration(time.Millisecond)
		return r.SLO
	}
	capBps := 10e9
	shares := func(bps float64, bott bool) []TenantShare {
		return []TenantShare{
			{Tenant: "victim", Bps: bps, Bottlenecked: bott},
			{Tenant: "other", Bps: capBps - bps, Bottlenecked: false},
		}
	}

	tr := newTracker()
	// Unsaturated link: no violation however small the share.
	tr.ObserveLink(0, 0, "l", capBps, 0.5*capBps, shares(0.1e9, true))
	if len(tr.Violations()) != 0 {
		t.Error("unsaturated link must not violate")
	}
	// Saturated but not bottlenecked here: demand-limited, no violation.
	tr.ObserveLink(0, 0, "l", capBps, capBps, shares(0.1e9, false))
	if len(tr.Violations()) != 0 {
		t.Error("non-bottlenecked tenant must not violate")
	}
	// Saturated, bottlenecked, below 95% of the 5 GB/s entitlement.
	tr.ObserveLink(0, 0, "l", capBps, capBps, shares(1e9, true))
	if len(tr.Violations()) != 1 {
		t.Fatalf("violations = %+v", tr.Violations())
	}
	v := tr.Violations()[0]
	if v.Tenant != "victim" || v.EntitledBps != 5e9 || v.AchievedBps != 1e9 || v.DeficitBps != 4e9 {
		t.Errorf("violation = %+v", v)
	}
	// Same window again: deduped. Next window: new violation.
	tr.ObserveLink(sim.Time(500*time.Microsecond), 0, "l", capBps, capBps, shares(1e9, true))
	if len(tr.Violations()) != 1 {
		t.Error("same-window repeat must dedup")
	}
	tr.ObserveLink(sim.Time(time.Millisecond), 0, "l", capBps, capBps, shares(1e9, true))
	if len(tr.Violations()) != 2 {
		t.Error("next window must report again")
	}
	// Within tolerance (>= 95% of entitlement): no violation.
	tr2 := newTracker()
	tr2.ObserveLink(0, 0, "l", capBps, capBps, shares(4.8e9, true))
	if len(tr2.Violations()) != 0 {
		t.Error("within-tolerance share must not violate")
	}
	// The audit counter mirrors the per-tenant violation count.
	c := tr.reg.Counter("mccs_slo_violations_total", "violations", L("tenant", "victim"))
	if c.Value() != 2 {
		t.Errorf("violation counter = %d, want 2", c.Value())
	}
}
