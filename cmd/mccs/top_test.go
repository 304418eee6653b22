package main

import (
	"slices"
	"strings"
	"testing"
	"time"

	"mccs/internal/sim"
	"mccs/internal/telemetry"
)

// synthetic builds a two-tenant, two-link series by hand: tenant "a"
// pushes 2 GB/s of tx bytes, tenant "b" 1 GB/s, link l0 runs hot with
// external traffic, and "b" takes one SLO violation.
func synthetic() *telemetry.Series {
	sec := sim.Time(time.Second)
	cols := []telemetry.Column{
		{Name: "mccs_transport_tx_bytes_total", Unit: "bytes", Kind: "counter",
			Labels: []telemetry.Label{telemetry.L("host", "h0"), telemetry.L("tenant", "a")}},
		{Name: "mccs_transport_tx_bytes_total", Unit: "bytes", Kind: "counter",
			Labels: []telemetry.Label{telemetry.L("host", "h0"), telemetry.L("tenant", "b")}},
		{Name: "mccs_proxy_ops_total", Unit: "ops", Kind: "counter",
			Labels: []telemetry.Label{telemetry.L("tenant", "a")}},
		{Name: "mccs_fabric_link_utilization", Unit: "ratio", Kind: "gauge",
			Labels: []telemetry.Label{telemetry.L("link", "l0")}},
		{Name: "mccs_fabric_link_utilization", Unit: "ratio", Kind: "gauge",
			Labels: []telemetry.Label{telemetry.L("link", "l1")}},
		{Name: "mccs_fabric_link_external_bps", Unit: "bytes/s", Kind: "gauge",
			Labels: []telemetry.Label{telemetry.L("link", "l0")}},
		// Tenant "a" autotuned twice: the first strategy was retired
		// (gauge back to 0), the second is current.
		{Name: "mccs_tuner_strategy_info", Unit: "info", Kind: "gauge",
			Labels: []telemetry.Label{telemetry.L("strategy", "ring/rank/ch1/ecmp"), telemetry.L("tenant", "a")}},
		{Name: "mccs_tuner_strategy_info", Unit: "info", Kind: "gauge",
			Labels: []telemetry.Label{telemetry.L("strategy", "ring/locality/ch2/pin"), telemetry.L("tenant", "a")}},
		{Name: "mccs_tuner_searches_total", Unit: "searches", Kind: "counter",
			Labels: []telemetry.Label{telemetry.L("tenant", "a")}},
		{Name: "mccs_tuner_predicted_seconds", Unit: "seconds", Kind: "gauge",
			Labels: []telemetry.Label{telemetry.L("tenant", "a")}},
		{Name: "mccs_tuner_achieved_seconds", Unit: "seconds", Kind: "gauge",
			Labels: []telemetry.Label{telemetry.L("tenant", "a")}},
	}
	return &telemetry.Series{
		Interval: time.Second,
		Cols:     cols,
		Links: []telemetry.LinkInfo{
			{ID: 0, Name: "l0", CapBps: 12.5e9},
			{ID: 1, Name: "l1", CapBps: 12.5e9},
		},
		Samples: []telemetry.Sample{
			{T: 0, V: []float64{0, 0, 0, 0.9, 0.2, 5e9, 1, 0, 1, 0.010, 0}},
			{T: sec, V: []float64{2e9, 1e9, 10, 0.9, 0.2, 5e9, 0, 1, 2, 0.012, 0.013}},
			{T: 2 * sec, V: []float64{4e9, 2e9, 20, 0.9, 0.2, 5e9, 0, 1, 2, 0.012, 0.013}},
		},
		Violations: []telemetry.Violation{
			{T: sec, Window: time.Second, Tenant: "b", Link: 0, LinkName: "l0",
				AchievedBps: 1e9, EntitledBps: 6.25e9, DeficitBps: 5.25e9},
		},
	}
}

// sectionRows renders se and returns the fields of each line of the
// section titled title, header excluded; nil when the section is absent.
func sectionRows(t *testing.T, se *telemetry.Series, opt options, title string) [][]string {
	t.Helper()
	var b strings.Builder
	render(&b, se, opt)
	for _, block := range strings.Split(b.String(), "\n\n") {
		lines := strings.Split(strings.TrimSuffix(block, "\n"), "\n")
		if !strings.HasPrefix(lines[0], title+" ") {
			continue
		}
		var rows [][]string
		for _, l := range lines[1:] {
			rows = append(rows, strings.Fields(l))
		}
		return rows
	}
	return nil
}

func TestTenantRows(t *testing.T) {
	rows := sectionRows(t, synthetic(), options{}, "TENANT")
	want := [][]string{
		{"a", "2.00", "20", "0", "0"}, // 2 GB/s of tx bytes, 20 ops
		{"b", "1.00", "0", "0", "1"},  // 1 GB/s, one SLO violation
	}
	if !slices.EqualFunc(rows, want, slices.Equal) {
		t.Errorf("tenant rows = %q, want %q", rows, want)
	}
}

func TestTunerRows(t *testing.T) {
	// The current strategy is the non-retired info gauge; predicted and
	// achieved are 0.012 s and 0.013 s.
	rows := sectionRows(t, synthetic(), options{}, "TUNER")
	want := [][]string{{"a", "ring/locality/ch2/pin", "2", "12.000", "13.000"}}
	if !slices.EqualFunc(rows, want, slices.Equal) {
		t.Errorf("tuner rows = %q, want %q", rows, want)
	}
}

func TestLinkRows(t *testing.T) {
	// Busiest first: l0 at 90 % utilization with external traffic at 40 %
	// of capacity, l1 at 20 % with none.
	rows := sectionRows(t, synthetic(), options{}, "BUSIEST LINKS")
	want := [][]string{
		{"l0", "100", "90.0%", "40.0%"},
		{"l1", "100", "20.0%", "0.0%"},
	}
	if !slices.EqualFunc(rows, want, slices.Equal) {
		t.Errorf("link rows = %q, want %q", rows, want)
	}
}

func TestRender(t *testing.T) {
	var b strings.Builder
	render(&b, synthetic(), options{topLinks: 5, topViolations: 5})
	out := b.String()
	for _, want := range []string{
		"3 samples", "TENANT", "GOODPUT",
		"TUNER", "ring/locality/ch2/pin",
		"BUSIEST LINKS", "l0", "l1",
		"SLO VIOLATIONS: 1", "6.25", // entitled GB/s
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q:\n%s", want, out)
		}
	}
}

func TestRenderEmpty(t *testing.T) {
	var b strings.Builder
	render(&b, nil, options{})
	if !strings.Contains(b.String(), "no samples") {
		t.Errorf("empty render = %q", b.String())
	}
}

// schedSeries extends the synthetic series with the orchestrator's
// mccs_sched_* families, the diagnosis engine's mccs_doctor_* families,
// and a tenant name wider than the default first column, so the
// snapshot exercises every section at once plus the shared-width rule.
func schedSeries() *telemetry.Series {
	se := synthetic()
	// Rename tenant "b" to something wider than the 12-char default so
	// all tenant-keyed sections must stretch together.
	for i := range se.Cols {
		for j, l := range se.Cols[i].Labels {
			if l.Key == "tenant" && l.Value == "b" {
				se.Cols[i].Labels[j].Value = "tenant-long-name"
			}
		}
	}
	se.Violations[0].Tenant = "tenant-long-name"
	sched := []telemetry.Column{
		{Name: "mccs_sched_jobs_running", Unit: "jobs", Kind: "gauge"},
		{Name: "mccs_sched_jobs_queued", Unit: "jobs", Kind: "gauge"},
		{Name: "mccs_sched_gpus_busy", Unit: "gpus", Kind: "gauge"},
		{Name: "mccs_sched_jobs_completed_total", Unit: "jobs", Kind: "counter"},
		{Name: "mccs_sched_admission_rejects_total", Unit: "jobs", Kind: "counter"},
		{Name: "mccs_sched_reconfigs_total", Unit: "reconfigs", Kind: "counter"},
		{Name: "mccs_sched_queue_wait_seconds", Unit: "seconds", Kind: "counter"},
		{Name: "mccs_sched_placements_total", Unit: "jobs", Kind: "counter",
			Labels: []telemetry.Label{telemetry.L("locality", "host")}},
		{Name: "mccs_sched_placements_total", Unit: "jobs", Kind: "counter",
			Labels: []telemetry.Label{telemetry.L("locality", "rack")}},
		{Name: "mccs_sched_placements_total", Unit: "jobs", Kind: "counter",
			Labels: []telemetry.Label{telemetry.L("locality", "cross-rack")}},
	}
	se.Cols = append(se.Cols, sched...)
	tail := [][]float64{
		{1, 0, 2, 0, 0, 0, 0, 1, 0, 0},
		{2, 1, 6, 1, 0, 1, 0.015, 2, 1, 0},
		{2, 1, 6, 3, 1, 2, 0.030, 2, 1, 1},
	}
	// The diagnosis engine's view: one incident still open at the end,
	// two slow-gpu + one congested-link diagnosed in total, tenant "a"
	// last blamed on a slow GPU (class 1) and the long-named tenant on a
	// congested link (class 2), with 4 trace spans lost to ring wrap.
	health := []telemetry.Column{
		{Name: "mccs_doctor_open_incidents", Unit: "incidents", Kind: "gauge"},
		{Name: "mccs_doctor_spans_total", Unit: "spans", Kind: "counter"},
		{Name: "mccs_trace_dropped_total", Unit: "spans", Kind: "counter"},
		{Name: "mccs_doctor_incidents_total", Unit: "incidents", Kind: "counter",
			Labels: []telemetry.Label{telemetry.L("class", "slow-gpu")}},
		{Name: "mccs_doctor_incidents_total", Unit: "incidents", Kind: "counter",
			Labels: []telemetry.Label{telemetry.L("class", "congested-link")}},
		{Name: "mccs_doctor_last_cause", Unit: "class", Kind: "gauge",
			Labels: []telemetry.Label{telemetry.L("tenant", "a")}},
		{Name: "mccs_doctor_last_cause", Unit: "class", Kind: "gauge",
			Labels: []telemetry.Label{telemetry.L("tenant", "tenant-long-name")}},
	}
	se.Cols = append(se.Cols, health...)
	htail := [][]float64{
		{0, 40, 0, 0, 0, 0, 0},
		{1, 90, 0, 1, 1, 1, 2},
		{1, 140, 4, 2, 1, 1, 2},
	}
	for i := range se.Samples {
		se.Samples[i].V = append(se.Samples[i].V, tail[i]...)
		se.Samples[i].V = append(se.Samples[i].V, htail[i]...)
	}
	return se
}

func TestHealthRows(t *testing.T) {
	rows := sectionRows(t, schedSeries(), options{}, "HEALTH")
	want := [][]string{
		{"doctor", "1", "3", "140", "4"}, // open, incidents, spans, dropped
		{"by", "class", "slow-gpu", "2", "/", "congested-link", "1"},
		{"a", "slow-gpu"},
		{"tenant-long-name", "congested-link"},
		{"WARNING", "4", "trace", "spans", "dropped", "by", "ring", "wrap;", "diagnosis", "evidence", "may", "be", "incomplete"},
	}
	if !slices.EqualFunc(rows, want, slices.Equal) {
		t.Errorf("health rows = %q, want %q", rows, want)
	}
	if rows := sectionRows(t, synthetic(), options{}, "HEALTH"); rows != nil {
		t.Errorf("health section present in a series with no doctor metrics: %q", rows)
	}
}

func TestSchedRows(t *testing.T) {
	rows := sectionRows(t, schedSeries(), options{}, "SCHED")
	want := [][]string{
		// running/queued/busy gauges, done/rejects/reconfigs counters, and
		// 30 ms of cumulative queue wait over 4 placements.
		{"jobs", "2", "1", "6", "3", "1", "2", "7.500"},
		{"placements", "host", "2", "/", "rack", "1", "/", "cross-rack", "1"},
	}
	if !slices.EqualFunc(rows, want, slices.Equal) {
		t.Errorf("sched rows = %q, want %q", rows, want)
	}
	if rows := sectionRows(t, synthetic(), options{}, "SCHED"); rows != nil {
		t.Errorf("sched section present in a series with no orchestrator metrics: %q", rows)
	}
}

// TestRenderAllSectionsSnapshot pins the whole operator view byte for
// byte: section order (TENANT, SCHED, TUNER, HEALTH, BUSIEST LINKS,
// SLO VIOLATIONS), the shared first-column width across the
// tenant-keyed sections, and every derived number. A layout change
// must update this golden deliberately.
func TestRenderAllSectionsSnapshot(t *testing.T) {
	var b strings.Builder
	render(&b, schedSeries(), options{topLinks: 5, topViolations: 5})
	want := `mccs-top: 3 samples every 1s, window [0.000s, 2.000s]

TENANT             GOODPUT GB/s        OPS  RECONFIGS  VIOLATIONS
a                          2.00         20          0           0
tenant-long-name           1.00          0          0           1

SCHED             RUNNING   QUEUED     BUSY     DONE  REJECTS  RECONFIGS  AVG WAIT ms
jobs                    2        1        6        3        1          2        7.500
placements       host 2 / rack 1 / cross-rack 1

TUNER            STRATEGY                      SEARCHES  PREDICTED ms   ACHIEVED ms
a                ring/locality/ch2/pin                2        12.000        13.000

HEALTH               OPEN  INCIDENTS      SPANS    DROPPED
doctor                  1          3        140          4
by class         slow-gpu 2 / congested-link 1
a                slow-gpu
tenant-long-name congested-link
WARNING          4 trace spans dropped by ring wrap; diagnosis evidence may be incomplete

BUSIEST LINKS              CAP Gb/s     UTIL   EXTERNAL
l0                              100    90.0%      40.0%
l1                              100    20.0%       0.0%

SLO VIOLATIONS: 1
T          TENANT       LINK                       ACHVD GB/s   ENTLD GB/s DEFICIT GB/s
    1.000s tenant-long-name l0                               1.00         6.25         5.25
`
	if got := b.String(); got != want {
		t.Errorf("render mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestRenderSchedAbsent checks runs without an orchestrator keep their
// old layout: no SCHED section, 12-char first column.
func TestRenderSchedAbsent(t *testing.T) {
	var b strings.Builder
	render(&b, synthetic(), options{topLinks: 5, topViolations: 5})
	out := b.String()
	if strings.Contains(out, "SCHED") {
		t.Errorf("SCHED rendered without orchestrator metrics:\n%s", out)
	}
	if strings.Contains(out, "HEALTH") {
		t.Errorf("HEALTH rendered without doctor metrics:\n%s", out)
	}
	if !strings.Contains(out, "TENANT         GOODPUT") {
		t.Errorf("default 12-char first column lost:\n%s", out)
	}
}

func TestWindowLastN(t *testing.T) {
	var b strings.Builder
	render(&b, synthetic(), options{lastN: 2})
	if !strings.HasPrefix(b.String(), "mccs-top: 3 samples every 1s, window [1.000s, 2.000s]\n") {
		t.Fatalf("window of the last 2 samples:\n%s", b.String())
	}
	// Rates over the trailing window still come out per-second.
	if rows := sectionRows(t, synthetic(), options{lastN: 2}, "TENANT"); rows[0][1] != "2.00" {
		t.Errorf("windowed goodput = %q", rows[0])
	}
	b.Reset()
	render(&b, synthetic(), options{})
	if !strings.HasPrefix(b.String(), "mccs-top: 3 samples every 1s, window [0.000s, 2.000s]\n") {
		t.Errorf("lastN=0 must keep the whole series:\n%s", b.String())
	}
}

// healSeries extends schedSeries with the self-healing control loop's
// metrics: one link quarantined at window end, three quarantine
// episodes of which two re-admitted and one opportunity suppressed by
// the action cap, recovered via two re-pins and one ring reversal.
func healSeries() *telemetry.Series {
	se := schedSeries()
	heal := []telemetry.Column{
		{Name: "mccs_remediation_quarantined_links", Unit: "links", Kind: "gauge"},
		{Name: "mccs_remediation_quarantines_total", Unit: "links", Kind: "counter"},
		{Name: "mccs_remediation_readmissions_total", Unit: "links", Kind: "counter"},
		{Name: "mccs_remediation_suppressed_total", Unit: "opportunities", Kind: "counter"},
		{Name: "mccs_remediation_actions_total", Unit: "actions", Kind: "counter",
			Labels: []telemetry.Label{telemetry.L("action", "repin")}},
		{Name: "mccs_remediation_actions_total", Unit: "actions", Kind: "counter",
			Labels: []telemetry.Label{telemetry.L("action", "reverse")}},
		{Name: "mccs_remediation_actions_total", Unit: "actions", Kind: "counter",
			Labels: []telemetry.Label{telemetry.L("action", "degrade")}},
	}
	se.Cols = append(se.Cols, heal...)
	rtail := [][]float64{
		{0, 0, 0, 0, 0, 0, 0},
		{1, 2, 1, 0, 1, 1, 0},
		{1, 3, 2, 1, 2, 1, 0},
	}
	for i := range se.Samples {
		se.Samples[i].V = append(se.Samples[i].V, rtail[i]...)
	}
	return se
}

func TestRemediationRows(t *testing.T) {
	rows := sectionRows(t, healSeries(), options{}, "REMEDIATION")
	want := [][]string{
		{"healer", "1", "3", "2", "1"}, // quarantined, episodes, readmitted, suppressed
		// Zero-valued actions (degrade) are dropped; counts sort
		// descending, ties by name.
		{"by", "action", "repin", "2", "/", "reverse", "1"},
		{"WARNING", "1", "link(s)", "still", "quarantined", "at", "window", "end;", "recovery", "incomplete"},
	}
	if !slices.EqualFunc(rows, want, slices.Equal) {
		t.Errorf("remediation rows = %q, want %q", rows, want)
	}
	if rows := sectionRows(t, synthetic(), options{}, "REMEDIATION"); rows != nil {
		t.Errorf("remediation section present in a series with no control-loop metrics: %q", rows)
	}
}

// TestRenderRemediationSection pins the REMEDIATION section's layout and
// its position between HEALTH and BUSIEST LINKS.
func TestRenderRemediationSection(t *testing.T) {
	var b strings.Builder
	render(&b, healSeries(), options{topLinks: 5, topViolations: 5})
	out := b.String()
	want := `REMEDIATION          QUAR   EPISODES READMITTED SUPPRESSED
healer                  1          3          2          1
by action        repin 2 / reverse 1
WARNING          1 link(s) still quarantined at window end; recovery incomplete
`
	if !strings.Contains(out, want) {
		t.Errorf("missing remediation section:\n--- got ---\n%s--- want fragment ---\n%s", out, want)
	}
	h := strings.Index(out, "\nHEALTH")
	r := strings.Index(out, "\nREMEDIATION")
	l := strings.Index(out, "\nBUSIEST LINKS")
	if !(h >= 0 && h < r && r < l) {
		t.Errorf("section order wrong: HEALTH@%d REMEDIATION@%d LINKS@%d", h, r, l)
	}
}
