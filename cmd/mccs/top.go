package main

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	"mccs/internal/diagnosis"
	"mccs/internal/telemetry"
)

// runTop renders a cluster operator's view of an MCCS telemetry series
// (the sections table below says what each section reads), then the
// busiest fabric links and the SLO violations the run produced. It reads
// a JSONL file exported with an experiment subcommand's -telemetry flag.
// Sections always render in the same order and share one first-column
// width, so the layout is identical whichever sections have data.
func runTop(args []string, stdout io.Writer) error {
	fs := newFlagSet("top", "[flags] telemetry.jsonl", "Operator view of a telemetry series: tenants, scheduler, tuner, health, remediation, busiest links, SLO violations.")
	lastN := fs.Int("last", 0, "compute rates over the last N samples only (0 = whole series)")
	topLinks := fs.Int("links", 6, "busiest links to show")
	topViol := fs.Int("violations", 8, "most recent SLO violations to show")
	if err := parseFlags(fs, args, stdout); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return usagef("expected one telemetry.jsonl")
	}
	se, err := loadSeries(fs.Arg(0))
	if err != nil {
		return err
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

// render writes the full operator view.
func render(w io.Writer, se *telemetry.Series, opt options) {
	if se == nil || len(se.Samples) == 0 {
		fmt.Fprintln(w, "no samples in series")
		return
	}
	s := se.Samples
	if opt.lastN > 0 && len(s) > opt.lastN {
		s = s[len(s)-opt.lastN:]
	}
	fmt.Fprintf(w, "mccs-top: %d samples every %v, window [%.3fs, %.3fs]\n",
		len(se.Samples), time.Duration(se.Interval), s[0].T.Seconds(), s[len(s)-1].T.Seconds())
	lw := labelWidth(se)
	for _, sec := range sections {
		sec.render(w, se, s, lw)
	}
	renderLinks(w, se, s, opt.topLinks)
	renderViolations(w, se, opt.topViolations)
}

// labelWidth is the sections' shared first-column width: wide enough for
// the longest tenant name in the series, never narrower than the section
// titles, so the sections line up no matter which of them have data.
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

// sections is the family-driven part of the view, in render order.
// HEALTH reads the diagnosis engine (a -doctor run), REMEDIATION the
// self-healing control loop.
var sections = []section{
	{title: "TENANT", key: "tenant", cols: []column{
		{head: "GOODPUT GB/s", w: 14, prec: 2, fam: "mccs_transport_tx_bytes_total", rate: true, derive: giga},
		{head: "OPS", w: 10, fam: "mccs_proxy_ops_total"},
		{head: "RECONFIGS", w: 10, fam: "mccs_proxy_reconfigs_total"},
		{head: "VIOLATIONS", w: 11, derive: violations},
	}},
	{title: "SCHED", row: "jobs", cols: []column{
		{head: "RUNNING", w: 8, fam: "mccs_sched_jobs_running"},
		{head: "QUEUED", w: 8, fam: "mccs_sched_jobs_queued"},
		{head: "BUSY", w: 8, fam: "mccs_sched_gpus_busy"},
		{head: "DONE", w: 8, fam: "mccs_sched_jobs_completed_total"},
		{head: "REJECTS", w: 8, fam: "mccs_sched_admission_rejects_total"},
		{head: "RECONFIGS", w: 10, fam: "mccs_sched_reconfigs_total"},
		{head: "AVG WAIT ms", w: 12, prec: 3, fam: "mccs_sched_queue_wait_seconds", derive: avgWait},
	}, tails: []tail{{"mccs_sched_placements_total", placements}}},
	{title: "TUNER", key: "tenant", cols: []column{
		{head: "STRATEGY", w: -28, fam: "mccs_tuner_strategy_info", info: "strategy"},
		{head: "SEARCHES", w: 9, fam: "mccs_tuner_searches_total"},
		{head: "PREDICTED ms", w: 13, prec: 3, fam: "mccs_tuner_predicted_seconds", derive: milli},
		{head: "ACHIEVED ms", w: 13, prec: 3, fam: "mccs_tuner_achieved_seconds", derive: milli},
	}},
	{title: "HEALTH", row: "doctor", cols: []column{
		{head: "OPEN", w: 8, fam: "mccs_doctor_open_incidents"},
		{head: "INCIDENTS", w: 10, fam: "mccs_doctor_incidents_total"},
		{head: "SPANS", w: 10, fam: "mccs_doctor_spans_total"},
		{head: "DROPPED", w: 10, fam: "mccs_trace_dropped_total",
			warn: "trace spans dropped by ring wrap; diagnosis evidence may be incomplete"},
	}, tails: []tail{
		{"mccs_doctor_incidents_total", breakdown("by class", "class")},
		{"mccs_doctor_last_cause", lastCauses},
	}},
	{title: "REMEDIATION", row: "healer", cols: []column{
		{head: "QUAR", w: 8, fam: "mccs_remediation_quarantined_links",
			warn: "link(s) still quarantined at window end; recovery incomplete"},
		{head: "EPISODES", w: 10, fam: "mccs_remediation_quarantines_total"},
		{head: "READMITTED", w: 10, fam: "mccs_remediation_readmissions_total"},
		{head: "SUPPRESSED", w: 10, fam: "mccs_remediation_suppressed_total"},
	}, tails: []tail{{"mccs_remediation_actions_total", breakdown("by action", "action")}}},
}

// A section renders, when any family it reads has a column, a header,
// one row per value of its key label (without one, the one row named
// row), the lines of its tails and its columns' warnings.
type section struct {
	title, key, row string
	cols            []column
	tails           []tail
}

// A column reduces one family over a row's series columns: the last
// value, or with rate the per-second rate over the window, summed; or,
// with info, that label of the info gauge that reads 1. derive turns the
// sum into the printed number. A negative width left-aligns. warn is a
// warning shown after the tails when the family's value is above 0.
type column struct {
	head       string
	w, prec    int
	fam        string
	rate       bool
	info, warn string
	derive     func(r row, v float64) float64
}

// A tail is lines of a name and a text derived from one family's series
// columns at the end of the window.
type tail struct {
	fam   string
	lines func(se *telemetry.Series, last telemetry.Sample, cols []int) [][2]string
}

// A row is one key of a section over the sample window; match selects
// its series columns.
type row struct {
	se    *telemetry.Series
	s     []telemetry.Sample
	key   string
	match []telemetry.Label
}

// match selects row k's series columns, every row's when k is "". A
// fixed row reads all of a family's columns.
func (sec section) match(k string) []telemetry.Label {
	if sec.key == "" {
		return nil
	}
	return []telemetry.Label{telemetry.L(sec.key, k)}
}

func (sec section) render(w io.Writer, se *telemetry.Series, s []telemetry.Sample, lw int) {
	var keys []string
	add := func(fam string) {
		for _, c := range se.FindCols(fam, sec.match("")...) {
			k := sec.row
			if sec.key != "" {
				k = se.LabelValue(c, sec.key)
			}
			if !slices.Contains(keys, k) {
				keys = append(keys, k)
			}
		}
	}
	for _, c := range sec.cols {
		add(c.fam)
	}
	for _, t := range sec.tails {
		add(t.fam)
	}
	if len(keys) == 0 {
		return
	}
	slices.Sort(keys)
	fmt.Fprintf(w, "\n%-*s", lw, sec.title)
	for _, c := range sec.cols {
		fmt.Fprintf(w, " %*s", c.w, c.head)
	}
	var warnings []string
	for _, k := range keys {
		r := row{se, s, k, sec.match(k)}
		fmt.Fprintf(w, "\n%-*s", lw, k)
		for _, c := range sec.cols {
			fmt.Fprint(w, c.cell(r))
			if c.warn == "" {
				continue
			}
			if v := r.sum(c.fam, false); v > 0 {
				warnings = append(warnings, fmt.Sprintf("%.0f %s", v, c.warn))
			}
		}
	}
	fmt.Fprintln(w)
	for _, t := range sec.tails {
		for _, l := range t.lines(se, s[len(s)-1], se.FindCols(t.fam)) {
			fmt.Fprintf(w, "%-*s %s\n", lw, l[0], l[1])
		}
	}
	for _, text := range warnings {
		fmt.Fprintf(w, "%-*s %s\n", lw, "WARNING", text)
	}
}

// cell is column c printed on row r.
func (c column) cell(r row) string {
	if c.info != "" {
		label := ""
		for _, i := range r.se.FindCols(c.fam, r.match...) {
			if r.se.Value(r.s[len(r.s)-1], i) == 1 { // retired values read 0
				label = r.se.LabelValue(i, c.info)
			}
		}
		return fmt.Sprintf(" %*s", c.w, cmp.Or(label, "-"))
	}
	v := r.sum(c.fam, c.rate)
	if c.derive != nil {
		v = c.derive(r, v)
	}
	return fmt.Sprintf(" %*.*f", c.w, c.prec, v)
}

// sum adds a family over the row's series columns: the last values, or
// the per-second rates over the window.
func (r row) sum(fam string, rate bool) float64 {
	first, last := r.s[0], r.s[len(r.s)-1]
	if first.T == last.T {
		first = telemetry.Sample{} // one instant: counters started at 0 at t=0
	}
	v, elapsed := 0.0, last.T.Sub(first.T).Seconds()
	for _, c := range r.se.FindCols(fam, r.match...) {
		if !rate {
			v += r.se.Value(last, c)
		} else if elapsed > 0 {
			v += (r.se.Value(last, c) - r.se.Value(first, c)) / elapsed
		}
	}
	return v
}

// breakdown is one line splitting a family by a label: non-zero values,
// largest first, ties by name.
func breakdown(name, label string) func(*telemetry.Series, telemetry.Sample, []int) [][2]string {
	return func(se *telemetry.Series, last telemetry.Sample, cols []int) [][2]string {
		slices.SortFunc(cols, func(i, j int) int {
			return cmp.Or(cmp.Compare(se.Value(last, j), se.Value(last, i)), strings.Compare(se.LabelValue(i, label), se.LabelValue(j, label)))
		})
		var parts []string
		for _, c := range cols {
			if n := se.Value(last, c); n > 0 {
				parts = append(parts, fmt.Sprintf("%s %.0f", se.LabelValue(c, label), n))
			}
		}
		if len(parts) == 0 {
			return nil
		}
		return [][2]string{{name, strings.Join(parts, " / ")}}
	}
}

func giga(_ row, v float64) float64  { return v / 1e9 }
func milli(_ row, v float64) float64 { return v * 1e3 }

// violations counts the row's tenant's SLO violations.
func violations(r row, _ float64) float64 {
	n := 0.0
	for _, v := range r.se.Violations {
		if v.Tenant == r.key {
			n++
		}
	}
	return n
}

// avgWait is the queue-wait integral over placements, in ms.
func avgWait(r row, wait float64) float64 {
	if placed := r.sum("mccs_sched_placements_total", false); placed > 0 {
		return wait / placed * 1e3
	}
	return 0
}

// placements splits the scheduler's placements by locality.
func placements(se *telemetry.Series, last telemetry.Sample, cols []int) [][2]string {
	n := map[string]float64{}
	for _, c := range cols {
		n[se.LabelValue(c, "locality")] = se.Value(last, c)
	}
	return [][2]string{{"placements", fmt.Sprintf("host %.0f / rack %.0f / cross-rack %.0f", n["host"], n["rack"], n["cross-rack"])}}
}

// lastCauses names each tenant's last diagnosed root cause.
func lastCauses(se *telemetry.Series, last telemetry.Sample, cols []int) [][2]string {
	var out [][2]string
	for _, c := range cols {
		out = append(out, [2]string{se.LabelValue(c, "tenant"), diagnosis.Class(int(se.Value(last, c))).String()})
	}
	slices.SortFunc(out, func(a, b [2]string) int { return strings.Compare(a[0], b[0]) })
	return out
}

// renderLinks lists the busiest links over the window: mean utilization
// and the external (unmanaged) traffic's mean share of capacity.
func renderLinks(w io.Writer, se *telemetry.Series, s []telemetry.Sample, top int) {
	type link struct {
		name              string
		capBps, util, ext float64
	}
	var rows []link
	for _, l := range se.Links {
		cols := se.FindCols("mccs_fabric_link_utilization", telemetry.L("link", l.Name))
		if len(cols) == 0 {
			continue
		}
		ext := se.FindCols("mccs_fabric_link_external_bps", telemetry.L("link", l.Name))
		r := link{name: l.Name, capBps: l.CapBps}
		var extBps float64
		for _, smp := range s {
			r.util += se.Value(smp, cols[0])
			if len(ext) > 0 {
				extBps += se.Value(smp, ext[0])
			}
		}
		n := float64(len(s))
		r.util /= n
		if l.CapBps > 0 {
			r.ext = extBps / n / l.CapBps
		}
		rows = append(rows, r)
	}
	slices.SortFunc(rows, func(a, b link) int { return cmp.Or(cmp.Compare(b.util, a.util), strings.Compare(a.name, b.name)) })
	if top > 0 && len(rows) > top {
		rows = rows[:top]
	}
	if len(rows) > 0 {
		fmt.Fprintf(w, "\n%-24s %10s %8s %10s\n", "BUSIEST LINKS", "CAP Gb/s", "UTIL", "EXTERNAL")
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%-24s %10.0f %7.1f%% %9.1f%%\n", r.name, r.capBps*8/1e9, r.util*100, r.ext*100)
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
