package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"runtime/pprof"
	"strconv"
	"syscall"
	"time"
)

// Run protocol constants (README.md "Run protocol"). A repeat is sized to
// about a second of host time, so --seconds 10 yields about ten of them.
const (
	setupPasses = 5   // setup_s is their median
	setupSize   = 0.1 // share of a full repeat a set-up pass warms up with
	minRepeats  = 3   // measured repeats even when --seconds is short
	// A run stops measuring early once the Go runtime holds this much
	// memory. Only chaos_observed gets there (every chaos run leaks its
	// environment), after five or six repeats; past 4-5 GB the sandbox
	// serves page faults three times slower and the repeats stop being
	// comparable.
	memoryGuard    = 3 << 30
	rssAfterRepeat = 3   // peak_rss_mb is read after this measured repeat
	profileHz      = 125 // two of the sandbox's 4 ms timer ticks: higher rates silently drop samples
)

// value is one reported metric with what -compare needs to judge it.
type value struct {
	Value float64   `json:"value"`
	Unit  string    `json:"unit"`
	Kind  string    `json:"kind,omitempty"`
	Q1    float64   `json:"q1,omitempty"`
	Q3    float64   `json:"q3,omitempty"`
	Raw   []float64 `json:"raw,omitempty"`
}

// runResult is everything one child run reports: the contract's result
// line is cut from it, the -out file keeps all of it.
type runResult struct {
	Workload      string           `json:"workload"`
	Seed          uint64           `json:"seed"`
	Trace         bool             `json:"trace"`
	Seconds       float64          `json:"seconds"`
	Correct       bool             `json:"correct"`
	Attempted     int              `json:"attempted"`
	Failed        int              `json:"failed"`
	Repeats       int              `json:"repeats"`
	OpsPerRepeat  int              `json:"ops_per_repeat"`
	ResultHash    string           `json:"result_hash"`
	ScheduleHash  string           `json:"schedule_hash"`
	LatSamples    int              `json:"sim_lat_samples,omitempty"`
	TailPct       int              `json:"sim_lat_tail_percentile,omitempty"`
	ProfileSample int64            `json:"profile_samples,omitempty"`
	ProfileCPUS   float64          `json:"profile_cpu_s,omitempty"`
	TracedCPUS    float64          `json:"traced_cpu_s,omitempty"`
	NotExposed    []string         `json:"not_exposed,omitempty"`
	Metrics       map[string]value `json:"metrics"`
	Problems      []string         `json:"problems,omitempty"`
}

// repeatCost is the host cost of one measured repeat.
type repeatCost struct {
	Seconds, CPUSeconds float64
	Mallocs, AllocBytes uint64
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

var vmHWM = regexp.MustCompile(`VmHWM:\s+(\d+) kB`)

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	m := vmHWM.FindSubmatch(status)
	if m == nil {
		return 0, errors.New("no VmHWM in /proc/self/status")
	}
	kb, err := strconv.ParseFloat(string(m[1]), 64)
	return kb / 1024, err
}

// measure runs one workload the way BENCHMARK.json's command is invoked:
// set-up passes, one untimed full-size warm-up, then measured repeats for
// `seconds`. Untraced it reports the end-to-end metrics; traced it reports
// the per-layer ones from a profiled pass with the observers on.
func measure(w *workload, seed uint64, seconds float64, traced, quick bool) (*runResult, error) {
	size, passes := 1.0, setupPasses
	if quick {
		size, passes = 0.02, 1
	}
	if traced {
		passes = 1 // setup_s is an end-to-end metric; a traced run only needs the warmth
	}
	res := &runResult{
		Workload: w.Name, Seed: seed, Trace: traced, Seconds: seconds,
		Correct: true, Metrics: map[string]value{},
	}

	// The layer probes run first, on a fresh heap: after the workload the
	// process may hold gigabytes (chaos_observed) and every allocating
	// probe would be timing the collector.
	if traced {
		probes, err := runProbes(quick)
		if err != nil {
			return nil, fmt.Errorf("layer probes: %w", err)
		}
		for _, p := range probeDefs {
			res.Metrics[p.Name] = value{Value: probes[p.Name]}
		}
		runtime.GC()
	}

	// Set-up: input generation, environment build, communicator bootstrap
	// and a short warm-up, from scratch each pass.
	var setups []float64
	for i := 0; i < passes; i++ {
		t0 := time.Now()
		if out := w.prepare(seed, size*setupSize)(false); out.Err != nil {
			return nil, fmt.Errorf("set-up pass: %w", out.Err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	m := &meter{res: res, run: w.prepare(seed, size)}
	m.ref = m.run(false)
	if m.ref.Err != nil {
		m.problem("warm-up: %v", m.ref.Err)
	}
	runtime.GC()
	res.OpsPerRepeat = m.ref.Attempted
	res.ResultHash = fmt.Sprintf("%#016x", m.ref.ResultHash)

	// Measured repeats, all tracing off. A traced run takes only the
	// minimum, as the baseline its traced pass is compared with.
	if traced {
		seconds = 0
	}
	var costs []repeatCost
	var rss float64
	for start := time.Now(); len(costs) < minRepeats || (!m.guarded && time.Since(start).Seconds() < seconds); {
		out, cost := m.timed(false)
		m.check(len(costs), out, m.ref.SchedHash)
		costs = append(costs, cost)
		if len(costs) == rssAfterRepeat {
			var err error
			if rss, err = peakRSSMB(); err != nil {
				return nil, err
			}
		}
	}
	res.Repeats = len(costs)
	col := func(f func(repeatCost) float64) []float64 {
		vs := make([]float64, len(costs))
		for i, c := range costs {
			vs[i] = f(c)
		}
		return vs
	}
	ops := float64(m.ref.Attempted)
	if traced {
		untraced := median(col(func(c repeatCost) float64 { return c.Seconds }))
		if err := m.tracedPass(res.Seconds, untraced, quick); err != nil {
			return nil, err
		}
		return res, tag(res, perLayer())
	}
	put := func(name string, raw []float64) {
		q1, med, q3 := quartiles(raw)
		res.Metrics[name] = value{Value: med, Q1: q1, Q3: q3, Raw: raw}
	}
	put("ops_per_s", col(func(c repeatCost) float64 { return ops / c.Seconds }))
	put("cpu_s_per_kop", col(func(c repeatCost) float64 { return c.CPUSeconds / ops * 1000 }))
	put("allocs_per_op", col(func(c repeatCost) float64 { return float64(c.Mallocs) / ops }))
	put("alloc_kb_per_op", col(func(c repeatCost) float64 { return float64(c.AllocBytes) / 1024 / ops }))
	put("setup_s", setups)
	res.Metrics["peak_rss_mb"] = value{Value: rss}
	res.Metrics["sim_ops_per_sim_s"] = value{Value: float64(m.ref.Attempted-m.ref.Failed) / m.ref.SimSeconds}
	res.ScheduleHash = hashString(m.ref.SchedHash)
	return res, tag(res, endToEnd)
}

// tag stamps unit and kind on every metric of defs and fails if one was
// not measured.
func tag(res *runResult, defs []metricDef) error {
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		v.Unit, v.Kind = d.Unit, d.Kind
		res.Metrics[d.Name] = v
	}
	return nil
}

func hashString(h uint64) string {
	if h == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%#016x", h)
}

// meter runs repeats of one prepared workload and checks each against the
// warm-up repeat's simulated results.
type meter struct {
	res     *runResult
	run     func(traced bool) repeatOut
	ref     repeatOut
	guarded bool // the memory guard tripped: stop adding repeats
}

func (m *meter) problem(format string, a ...any) {
	m.res.Correct = false
	m.res.Problems = append(m.res.Problems, fmt.Sprintf(format, a...))
}

// timed runs one repeat under the host-cost meters. The forced collection
// after the timer stops gives every repeat the same clean heap to start
// from.
func (m *meter) timed(traced bool) (repeatOut, repeatCost) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, t0 := cpuSeconds(), time.Now()
	out := m.run(traced)
	cost := repeatCost{Seconds: time.Since(t0).Seconds(), CPUSeconds: cpuSeconds() - cpu0}
	runtime.ReadMemStats(&m1)
	cost.Mallocs, cost.AllocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	m.guarded = m1.Sys > memoryGuard
	runtime.GC()
	return out, cost
}

// check holds repeat i to the output checks: no errors, the warm-up's
// simulated results, the expected schedule hash.
func (m *meter) check(i int, out repeatOut, wantSched uint64) {
	ref := m.ref
	if out.Err != nil {
		m.problem("repeat %d: %v", i, out.Err)
	}
	if out.Attempted != ref.Attempted || out.ResultHash != ref.ResultHash ||
		out.SimSeconds != ref.SimSeconds || len(out.LatUS) != len(ref.LatUS) {
		m.problem("repeat %d: simulated results differ from the warm-up's (result hash %#x vs %#x)", i, out.ResultHash, ref.ResultHash)
	}
	if out.SchedHash != wantSched {
		m.problem("repeat %d: schedule hash %#x differs from %#x", i, out.SchedHash, wantSched)
	}
	m.res.Attempted += out.Attempted
	m.res.Failed += out.Failed
}

// tracedPass repeats the workload with the observers on under a CPU
// profile for `seconds` and fills in the per-layer metrics.
func (m *meter) tracedPass(seconds, untracedSeconds float64, quick bool) error {
	res, ref := m.res, m.ref
	// The observers are schedule-neutral (every traced repeat must match
	// the untraced warm-up's result hash), so the simulated latencies are
	// the warm-up's.
	tail, pct := tailPercentile(ref.LatUS)
	res.LatSamples, res.TailPct = len(ref.LatUS), pct
	res.Metrics["sim_op_lat_p50_us"] = value{Value: median(ref.LatUS)}
	res.Metrics["sim_op_lat_p99_us"] = value{Value: tail}

	// runtime/pprof has no rate knob: setting the rate first makes pprof
	// keep it (its own SetCPUProfileRate call then fails with a one-line
	// notice on stderr).
	var prof bytes.Buffer
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	minTraced := 2
	if quick {
		minTraced = 1
	}
	var secs []float64
	var first repeatOut
	tracedOps := 0
	cpu0 := cpuSeconds()
	for start := time.Now(); len(secs) < minTraced || (!m.guarded && time.Since(start).Seconds() < seconds); {
		out, cost := m.timed(true)
		if len(secs) == 0 {
			first = out
		}
		m.check(res.Repeats+len(secs), out, first.SchedHash)
		for k, v := range first.Counters {
			if out.Counters[k] != v {
				m.problem("traced repeat %d: counter %s = %v, first traced repeat had %v", len(secs), k, out.Counters[k], v)
			}
		}
		secs = append(secs, cost.Seconds)
		tracedOps += out.Attempted
	}
	pprof.StopCPUProfile()
	res.TracedCPUS = cpuSeconds() - cpu0
	res.ScheduleHash = hashString(first.SchedHash)

	samples, err := parseProfile(prof.Bytes())
	if err != nil {
		return err
	}
	byLayer, byCategory, total := foldProfile(samples)
	for _, s := range samples {
		res.ProfileSample += s.Count
	}
	res.ProfileCPUS = float64(total) / 1e9
	var sumL, sumC int64
	perOp := func(ns int64) float64 { return float64(ns) / 1e3 / float64(tracedOps) }
	for _, l := range cpuLayers {
		res.Metrics[l+".cpu_us_per_op"] = value{Value: perOp(byLayer[l])}
		sumL += byLayer[l]
	}
	for _, c := range categories {
		res.Metrics[c+"_cpu_us_per_op"] = value{Value: perOp(byCategory[c])}
		sumC += byCategory[c]
	}
	if sumL != total || sumC != total {
		m.problem("profile partitions do not sum to the sample total: layers %d, categories %d, total %d", sumL, sumC, total)
	}

	for _, c := range counterDefs {
		v, ok := first.Counters[c.Key]
		if !ok {
			res.NotExposed = append(res.NotExposed, counterMetric(c.Key, c.PerOp))
		}
		if c.PerOp {
			v /= float64(ref.Attempted)
		}
		res.Metrics[counterMetric(c.Key, c.PerOp)] = value{Value: v}
	}
	for _, s := range spanNames {
		v, ok := first.Spans[s]
		if s == "bench.run_steady_ms" && !ok {
			// The driver builds its own environments: the whole repeat is
			// the steady phase.
			v, ok = median(secs)*1e3, true
		}
		if !ok {
			res.NotExposed = append(res.NotExposed, s)
		}
		res.Metrics[s] = value{Value: v}
	}
	res.Metrics["bench.trace_overhead_frac"] = value{Value: median(secs)/untracedSeconds - 1}
	return nil
}
