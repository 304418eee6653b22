package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"mccs/internal/diagnosis"
	"mccs/internal/harness"
	"mccs/internal/telemetry"
)

// runTop renders a cluster operator's view of an MCCS telemetry
// series: per-tenant goodput, the scheduler's lifecycle counters, the
// busiest fabric links, and the SLO violations the run produced. It
// reads a JSONL file exported with an experiment subcommand's -telemetry
// flag or, with -live, runs a scenario itself — the contended Fig. 7
// reconfiguration by default, the tenant churn experiment with
// -scenario churn — and renders the resulting series.
//
// Sections always render in a fixed order — TENANT, SCHED, TUNER,
// HEALTH, REMEDIATION, BUSIEST LINKS, SLO VIOLATIONS — and the
// tenant-keyed sections share one first-column width, so the layout is
// identical whether a series comes from a file or a -live run and
// whichever sections have data. HEALTH appears when the run had the
// diagnosis engine attached (a -doctor flag): open incidents, per-class
// totals, and each tenant's last diagnosed root cause. REMEDIATION
// appears when the self-healing control loop ran: links currently
// quarantined, quarantine/readmission/suppression totals, and per-action
// recovery counts (re-pin, ring reversal, re-tune, degrade, FFA re-run).
func runTop(args []string, stdout io.Writer) error {
	fs := newFlagSet("top", "[flags] telemetry.jsonl | -live [flags]", "Operator view of a telemetry series: tenants, scheduler, tuner, health, remediation, busiest links, SLO violations.")
	live := fs.Bool("live", false, "run a scenario instead of reading a file")
	scenario := fs.String("scenario", "reconfig", "-live scenario: reconfig (contended Fig. 7) or churn (tenant lifecycle)")
	lastN := fs.Int("last", 0, "compute rates over the last N samples only (0 = whole series)")
	topLinks := fs.Int("links", 6, "busiest links to show")
	topViol := fs.Int("violations", 8, "most recent SLO violations to show")
	every := fs.Duration("every", telemetry.DefaultInterval, "sampling interval for -live")
	if err := parseFlags(fs, args, stdout); err != nil {
		return err
	}
	if *every <= 0 {
		return usagef("-every must be positive")
	}

	var se *telemetry.Series
	switch {
	case *live && *scenario == "reconfig":
		cfg := harness.DefaultReconfigConfig()
		cfg.TelemetryEvery = *every
		res, err := harness.RunReconfigShowcase(cfg)
		if err != nil {
			return err
		}
		se = res.Telemetry
	case *live && *scenario == "churn":
		cfg := harness.DefaultChurnConfig()
		cfg.TelemetryEvery = *every
		res, err := harness.RunChurn(cfg)
		if err != nil {
			return err
		}
		se = res.Telemetry
	case *live:
		return usagef("unknown -scenario %q (reconfig or churn)", *scenario)
	case fs.NArg() == 1:
		var err error
		if se, err = loadSeries(fs.Arg(0)); err != nil {
			return err
		}
	default:
		return usagef("expected one telemetry.jsonl, or -live")
	}

	render(stdout, se, options{lastN: *lastN, topLinks: *topLinks, topViolations: *topViol})
	return nil
}

// options bounds what render shows.
type options struct {
	lastN         int // rate window in samples; 0 = whole series
	topLinks      int
	topViolations int
}

// window returns the samples the rate computations cover.
func window(se *telemetry.Series, lastN int) []telemetry.Sample {
	s := se.Samples
	if lastN > 0 && len(s) > lastN {
		s = s[len(s)-lastN:]
	}
	return s
}

// render writes the full operator view.
func render(w io.Writer, se *telemetry.Series, opt options) {
	if se == nil || len(se.Samples) == 0 {
		fmt.Fprintln(w, "no samples in series")
		return
	}
	s := window(se, opt.lastN)
	first, last := s[0], s[len(s)-1]
	fmt.Fprintf(w, "mccs-top: %d samples every %v, window [%.3fs, %.3fs]\n",
		len(se.Samples), time.Duration(se.Interval), first.T.Seconds(), last.T.Seconds())

	lw := labelWidth(se)
	renderTenants(w, se, s, lw)
	renderSched(w, se, s, lw)
	renderTuner(w, se, s, lw)
	renderHealth(w, se, s, lw)
	renderRemediation(w, se, s, lw)
	renderLinks(w, se, s, opt.topLinks)
	renderViolations(w, se, opt.topViolations)
}

// labelWidth is the shared first-column width of the tenant-keyed
// sections (TENANT, SCHED, TUNER): wide enough for the longest tenant
// name in the series, never narrower than the section titles, so the
// sections line up no matter which of them have data.
func labelWidth(se *telemetry.Series) int {
	w := 12
	for i := range se.Cols {
		for _, l := range se.Cols[i].Labels {
			if l.Key == "tenant" && len(l.Value) > w {
				w = len(l.Value)
			}
		}
	}
	return w
}

// tunerRow is one tenant's autotuner decision: the installed strategy
// (read off the info-pattern gauge), how many searches ran, and the
// model's predicted completion time against the first one achieved
// after the install.
type tunerRow struct {
	Tenant    string
	Strategy  string
	Searches  float64
	Predicted float64 // seconds; 0 = not recorded
	Achieved  float64 // seconds; 0 = not observed
}

// tunerRows extracts the per-tenant autotuner view from the series; nil
// when the run never autotuned.
func tunerRows(se *telemetry.Series, s []telemetry.Sample) []tunerRow {
	last := s[len(s)-1]
	byTenant := make(map[string]*tunerRow)
	row := func(tenant string) *tunerRow {
		r := byTenant[tenant]
		if r == nil {
			r = &tunerRow{Tenant: tenant}
			byTenant[tenant] = r
		}
		return r
	}
	for _, c := range se.FindCols("mccs_tuner_strategy_info", telemetry.L("tenant", "")) {
		// Retired strategies stay in the series at value 0; the current
		// one is the single column still at 1.
		if se.Value(last, c) != 1 {
			continue
		}
		row(se.LabelValue(c, "tenant")).Strategy = se.LabelValue(c, "strategy")
	}
	for _, c := range se.FindCols("mccs_tuner_searches_total", telemetry.L("tenant", "")) {
		row(se.LabelValue(c, "tenant")).Searches = se.Value(last, c)
	}
	for _, c := range se.FindCols("mccs_tuner_predicted_seconds", telemetry.L("tenant", "")) {
		row(se.LabelValue(c, "tenant")).Predicted = se.Value(last, c)
	}
	for _, c := range se.FindCols("mccs_tuner_achieved_seconds", telemetry.L("tenant", "")) {
		row(se.LabelValue(c, "tenant")).Achieved = se.Value(last, c)
	}
	rows := make([]tunerRow, 0, len(byTenant))
	for _, r := range byTenant {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Tenant < rows[j].Tenant })
	return rows
}

func renderTuner(w io.Writer, se *telemetry.Series, s []telemetry.Sample, lw int) {
	rows := tunerRows(se, s)
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, "\n%-*s %-28s %9s %13s %13s\n",
		lw, "TUNER", "STRATEGY", "SEARCHES", "PREDICTED ms", "ACHIEVED ms")
	for _, r := range rows {
		strat := r.Strategy
		if strat == "" {
			strat = "-"
		}
		fmt.Fprintf(w, "%-*s %-28s %9.0f %13.3f %13.3f\n",
			lw, r.Tenant, strat, r.Searches, r.Predicted*1e3, r.Achieved*1e3)
	}
}

// tenantRow aggregates one tenant across hosts and links.
type tenantRow struct {
	Tenant     string
	GoodputBps float64 // transport tx rate over the window
	Ops        float64 // collectives completed (end of window)
	Reconfigs  float64
	Violations int
}

// tenantRows computes the per-tenant table over the sample window.
func tenantRows(se *telemetry.Series, s []telemetry.Sample) []tenantRow {
	first, last := s[0], s[len(s)-1]
	elapsed := last.T.Sub(first.T).Seconds()
	byTenant := make(map[string]*tenantRow)
	row := func(tenant string) *tenantRow {
		r := byTenant[tenant]
		if r == nil {
			r = &tenantRow{Tenant: tenant}
			byTenant[tenant] = r
		}
		return r
	}
	for _, c := range se.FindCols("mccs_transport_tx_bytes_total", telemetry.L("tenant", "")) {
		r := row(se.LabelValue(c, "tenant"))
		if elapsed > 0 {
			r.GoodputBps += (se.Value(last, c) - se.Value(first, c)) / elapsed
		} else if t := last.T.Seconds(); t > 0 {
			// Single-sample window: counters started at 0 at t=0.
			r.GoodputBps += se.Value(last, c) / t
		}
	}
	for _, c := range se.FindCols("mccs_proxy_ops_total", telemetry.L("tenant", "")) {
		row(se.LabelValue(c, "tenant")).Ops += se.Value(last, c)
	}
	for _, c := range se.FindCols("mccs_proxy_reconfigs_total", telemetry.L("tenant", "")) {
		row(se.LabelValue(c, "tenant")).Reconfigs += se.Value(last, c)
	}
	for _, v := range se.Violations {
		row(v.Tenant).Violations++
	}
	rows := make([]tenantRow, 0, len(byTenant))
	for _, r := range byTenant {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Tenant < rows[j].Tenant })
	return rows
}

func renderTenants(w io.Writer, se *telemetry.Series, s []telemetry.Sample, lw int) {
	rows := tenantRows(se, s)
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, "\n%-*s %14s %10s %10s %11s\n", lw, "TENANT", "GOODPUT GB/s", "OPS", "RECONFIGS", "VIOLATIONS")
	for _, r := range rows {
		fmt.Fprintf(w, "%-*s %14.2f %10.0f %10.0f %11d\n",
			lw, r.Tenant, r.GoodputBps/1e9, r.Ops, r.Reconfigs, r.Violations)
	}
}

// schedView is the scheduler's end-of-window state, read off the
// mccs_sched_* families the orchestrator exports.
type schedView struct {
	Running, Queued, Busy    float64 // gauges at the last sample
	Done, Rejects, Reconfigs float64 // counters at the last sample
	AvgWaitSec               float64 // queue-wait integral over placements
	Host, Rack, Cross        float64 // placements by locality
	present                  bool
}

// schedRows reads the orchestrator view; present is false when the
// series has no scheduler metrics (runs without an orchestrator).
func schedRows(se *telemetry.Series, s []telemetry.Sample) schedView {
	last := s[len(s)-1]
	var v schedView
	one := func(name string) float64 {
		cols := se.FindCols(name)
		if len(cols) == 0 {
			return 0
		}
		v.present = true
		return se.Value(last, cols[0])
	}
	v.Running = one("mccs_sched_jobs_running")
	v.Queued = one("mccs_sched_jobs_queued")
	v.Busy = one("mccs_sched_gpus_busy")
	v.Done = one("mccs_sched_jobs_completed_total")
	v.Rejects = one("mccs_sched_admission_rejects_total")
	v.Reconfigs = one("mccs_sched_reconfigs_total")
	wait := one("mccs_sched_queue_wait_seconds")
	for _, c := range se.FindCols("mccs_sched_placements_total", telemetry.L("locality", "")) {
		v.present = true
		n := se.Value(last, c)
		switch se.LabelValue(c, "locality") {
		case "host":
			v.Host = n
		case "rack":
			v.Rack = n
		case "cross-rack":
			v.Cross = n
		}
	}
	if placed := v.Host + v.Rack + v.Cross; placed > 0 {
		v.AvgWaitSec = wait / placed
	}
	return v
}

func renderSched(w io.Writer, se *telemetry.Series, s []telemetry.Sample, lw int) {
	v := schedRows(se, s)
	if !v.present {
		return
	}
	fmt.Fprintf(w, "\n%-*s %8s %8s %8s %8s %8s %10s %12s\n",
		lw, "SCHED", "RUNNING", "QUEUED", "BUSY", "DONE", "REJECTS", "RECONFIGS", "AVG WAIT ms")
	fmt.Fprintf(w, "%-*s %8.0f %8.0f %8.0f %8.0f %8.0f %10.0f %12.3f\n",
		lw, "jobs", v.Running, v.Queued, v.Busy, v.Done, v.Rejects, v.Reconfigs, v.AvgWaitSec*1e3)
	fmt.Fprintf(w, "%-*s host %.0f / rack %.0f / cross-rack %.0f\n",
		lw, "placements", v.Host, v.Rack, v.Cross)
}

// healthView is the diagnosis engine's end-of-window state, read off
// the mccs_doctor_* families a -doctor run exports.
type healthView struct {
	Open, Spans, Dropped float64
	ByClass              []classCount // non-zero classes, detection-count order
	LastCause            []tenantCause
	present              bool
}

type classCount struct {
	Class string
	Count float64
}

type tenantCause struct {
	Tenant, Class string
}

// healthRows reads the doctor view; present is false when the series has
// no diagnosis metrics (runs without -doctor).
func healthRows(se *telemetry.Series, s []telemetry.Sample) healthView {
	last := s[len(s)-1]
	var v healthView
	one := func(name string) float64 {
		cols := se.FindCols(name)
		if len(cols) == 0 {
			return 0
		}
		v.present = true
		return se.Value(last, cols[0])
	}
	v.Open = one("mccs_doctor_open_incidents")
	v.Spans = one("mccs_doctor_spans_total")
	v.Dropped = one("mccs_trace_dropped_total")
	for _, c := range se.FindCols("mccs_doctor_incidents_total", telemetry.L("class", "")) {
		v.present = true
		if n := se.Value(last, c); n > 0 {
			v.ByClass = append(v.ByClass, classCount{Class: se.LabelValue(c, "class"), Count: n})
		}
	}
	sort.Slice(v.ByClass, func(i, j int) bool {
		if v.ByClass[i].Count != v.ByClass[j].Count {
			return v.ByClass[i].Count > v.ByClass[j].Count
		}
		return v.ByClass[i].Class < v.ByClass[j].Class
	})
	for _, c := range se.FindCols("mccs_doctor_last_cause", telemetry.L("tenant", "")) {
		v.present = true
		v.LastCause = append(v.LastCause, tenantCause{
			Tenant: se.LabelValue(c, "tenant"),
			Class:  diagnosis.Class(int(se.Value(last, c))).String(),
		})
	}
	sort.Slice(v.LastCause, func(i, j int) bool { return v.LastCause[i].Tenant < v.LastCause[j].Tenant })
	return v
}

func renderHealth(w io.Writer, se *telemetry.Series, s []telemetry.Sample, lw int) {
	v := healthRows(se, s)
	if !v.present {
		return
	}
	total := 0.0
	for _, c := range v.ByClass {
		total += c.Count
	}
	fmt.Fprintf(w, "\n%-*s %8s %10s %10s %10s\n", lw, "HEALTH", "OPEN", "INCIDENTS", "SPANS", "DROPPED")
	fmt.Fprintf(w, "%-*s %8.0f %10.0f %10.0f %10.0f\n", lw, "doctor", v.Open, total, v.Spans, v.Dropped)
	if len(v.ByClass) > 0 {
		parts := make([]string, len(v.ByClass))
		for i, c := range v.ByClass {
			parts[i] = fmt.Sprintf("%s %.0f", c.Class, c.Count)
		}
		fmt.Fprintf(w, "%-*s %s\n", lw, "by class", strings.Join(parts, " / "))
	}
	for _, c := range v.LastCause {
		fmt.Fprintf(w, "%-*s %s\n", lw, c.Tenant, c.Class)
	}
	if v.Dropped > 0 {
		fmt.Fprintf(w, "%-*s %.0f trace spans dropped by ring wrap; diagnosis evidence may be incomplete\n", lw, "WARNING", v.Dropped)
	}
}

// remediationView is the self-healing control loop's state at the end
// of the window; present is false when the series has no remediation
// metrics (runs without the control loop attached).
type remediationView struct {
	present     bool
	Quarantined float64 // links quarantined right now
	Quarantines float64
	Readmitted  float64
	Suppressed  float64
	ByAction    []classCount
}

func remediationRows(se *telemetry.Series, s []telemetry.Sample) remediationView {
	last := s[len(s)-1]
	var v remediationView
	one := func(name string) float64 {
		cols := se.FindCols(name)
		if len(cols) == 0 {
			return 0
		}
		v.present = true
		return se.Value(last, cols[0])
	}
	v.Quarantined = one("mccs_remediation_quarantined_links")
	v.Quarantines = one("mccs_remediation_quarantines_total")
	v.Readmitted = one("mccs_remediation_readmissions_total")
	v.Suppressed = one("mccs_remediation_suppressed_total")
	for _, c := range se.FindCols("mccs_remediation_actions_total", telemetry.L("action", "")) {
		v.present = true
		if n := se.Value(last, c); n > 0 {
			v.ByAction = append(v.ByAction, classCount{Class: se.LabelValue(c, "action"), Count: n})
		}
	}
	sort.Slice(v.ByAction, func(i, j int) bool {
		if v.ByAction[i].Count != v.ByAction[j].Count {
			return v.ByAction[i].Count > v.ByAction[j].Count
		}
		return v.ByAction[i].Class < v.ByAction[j].Class
	})
	return v
}

func renderRemediation(w io.Writer, se *telemetry.Series, s []telemetry.Sample, lw int) {
	v := remediationRows(se, s)
	if !v.present {
		return
	}
	fmt.Fprintf(w, "\n%-*s %8s %10s %10s %10s\n", lw, "REMEDIATION", "QUAR", "EPISODES", "READMITTED", "SUPPRESSED")
	fmt.Fprintf(w, "%-*s %8.0f %10.0f %10.0f %10.0f\n", lw, "healer", v.Quarantined, v.Quarantines, v.Readmitted, v.Suppressed)
	if len(v.ByAction) > 0 {
		parts := make([]string, len(v.ByAction))
		for i, c := range v.ByAction {
			parts[i] = fmt.Sprintf("%s %.0f", c.Class, c.Count)
		}
		fmt.Fprintf(w, "%-*s %s\n", lw, "by action", strings.Join(parts, " / "))
	}
	if v.Quarantined > 0 {
		fmt.Fprintf(w, "%-*s %.0f link(s) still quarantined at window end; recovery incomplete\n", lw, "WARNING", v.Quarantined)
	}
}

// linkRow is one fabric link's utilization over the window.
type linkRow struct {
	Name     string
	CapBps   float64
	MeanUtil float64
	ExtShare float64 // external (unmanaged) traffic share of capacity
}

// linkRows computes mean utilization per link over the sample window,
// sorted busiest first.
func linkRows(se *telemetry.Series, s []telemetry.Sample) []linkRow {
	var rows []linkRow
	for _, l := range se.Links {
		cols := se.FindCols("mccs_fabric_link_utilization", telemetry.L("link", l.Name))
		if len(cols) == 0 {
			continue
		}
		ext := se.FindCols("mccs_fabric_link_external_bps", telemetry.L("link", l.Name))
		var util, extBps float64
		for _, smp := range s {
			util += se.Value(smp, cols[0])
			if len(ext) > 0 {
				extBps += se.Value(smp, ext[0])
			}
		}
		n := float64(len(s))
		r := linkRow{Name: l.Name, CapBps: l.CapBps, MeanUtil: util / n}
		if l.CapBps > 0 {
			r.ExtShare = extBps / n / l.CapBps
		}
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].MeanUtil != rows[j].MeanUtil {
			return rows[i].MeanUtil > rows[j].MeanUtil
		}
		return rows[i].Name < rows[j].Name
	})
	return rows
}

func renderLinks(w io.Writer, se *telemetry.Series, s []telemetry.Sample, top int) {
	rows := linkRows(se, s)
	if len(rows) == 0 {
		return
	}
	if top > 0 && len(rows) > top {
		rows = rows[:top]
	}
	fmt.Fprintf(w, "\n%-24s %10s %8s %10s\n", "BUSIEST LINKS", "CAP Gb/s", "UTIL", "EXTERNAL")
	for _, r := range rows {
		fmt.Fprintf(w, "%-24s %10.0f %7.1f%% %9.1f%%\n",
			r.Name, r.CapBps*8/1e9, r.MeanUtil*100, r.ExtShare*100)
	}
}

func renderViolations(w io.Writer, se *telemetry.Series, top int) {
	vs := se.Violations
	fmt.Fprintf(w, "\nSLO VIOLATIONS: %d\n", len(vs))
	if len(vs) == 0 {
		return
	}
	if top > 0 && len(vs) > top {
		vs = vs[len(vs)-top:]
	}
	fmt.Fprintf(w, "%-10s %-12s %-24s %12s %12s %12s\n",
		"T", "TENANT", "LINK", "ACHVD GB/s", "ENTLD GB/s", "DEFICIT GB/s")
	for _, v := range vs {
		fmt.Fprintf(w, "%9.3fs %-12s %-24s %12.2f %12.2f %12.2f\n",
			v.T.Seconds(), v.Tenant, v.LinkName,
			v.AchievedBps/1e9, v.EntitledBps/1e9, v.DeficitBps/1e9)
	}
}
