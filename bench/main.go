// Command bench is the repository's benchmark (see README.md and the root
// BENCHMARK.json): five workloads, each run as one process, reporting what
// the simulator costs on the host and what the simulated MCCS deployment
// achieves, end to end and layer by layer.
//
//	bash bench/run.sh --workload ar_small --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh --seed 1 --out A.json        # all workloads, both passes
//	bash bench/run.sh --compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run in this process; empty runs all five, one child process each")
		seed    = flag.Uint64("seed", 1, "seed every generated input derives from")
		seconds = flag.Float64("seconds", 10, "how long a run measures")
		traceOn = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced pass")
		quick   = flag.Bool("quick", false, "run at about 2 % size (smoke test; numbers are not comparable)")
		outPath = flag.String("out", "", "with no --workload: write every run's full result to this file")
		compare = flag.Bool("compare", false, "compare two --out files given as arguments; exits 1 on a worse verdict")
	)
	flag.Parse()
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("--compare needs two result files"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
	case *name == "":
		if err := runAll(*seed, *seconds, *quick, *outPath); err != nil {
			fatal(err)
		}
	default:
		w := workloadByName(*name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		runtime.GOMAXPROCS(maxProcs())
		res, err := measure(w, *seed, *seconds, *traceOn != 0, *quick)
		if err != nil {
			fatal(err)
		}
		printRun(res)
		if !res.Correct {
			os.Exit(1)
		}
	}
}

// maxProcs pins the load to at most two cores on every commit.
func maxProcs() int { return min(2, runtime.NumCPU()) }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// printRun prints every metric by name and unit, then the full result as
// a "detail" line for runAll, then the contract's result line, last.
func printRun(res *runResult) {
	defs := endToEnd
	if res.Trace {
		defs = perLayer()
	}
	fmt.Printf("workload %s  seed %d  trace %v  repeats %d  ops/repeat %d (op = %s)  attempted %d  failed %d\n",
		res.Workload, res.Seed, res.Trace, res.Repeats, res.OpsPerRepeat, workloadByName(res.Workload).OpUnit, res.Attempted, res.Failed)
	fmt.Printf("result_hash %s  schedule_hash %s\n", res.ResultHash, res.ScheduleHash)
	if res.Trace {
		fmt.Printf("profile samples %d covering %.2f of the traced pass's %.2f CPU-s\n", res.ProfileSample, res.ProfileCPUS, res.TracedCPUS)
		fmt.Printf("sim latency samples %d, sim_op_lat_p99_us reports p%d\n", res.LatSamples, res.TailPct)
	}
	hidden := map[string]bool{}
	for _, n := range res.NotExposed {
		hidden[n] = true
	}
	line := map[string]any{}
	for _, d := range defs {
		v := res.Metrics[d.Name]
		note := ""
		if hidden[d.Name] {
			note = "  (not exposed by this workload's driver)"
		}
		fmt.Printf("  %-40s %16.6g %-10s %s%s\n", d.Name, v.Value, d.Unit, d.Kind, note)
		line[d.Name] = map[string]any{"value": v.Value, "unit": d.Unit}
	}
	for _, p := range res.Problems {
		fmt.Println("PROBLEM:", p)
	}
	detail, _ := json.Marshal(res)
	fmt.Printf("detail %s\n", detail)
	last, _ := json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": line,
	})
	fmt.Printf("%s\n", last)
}

// resultFile is what --out writes and --compare reads.
type resultFile struct {
	Env     map[string]any `json:"env"`
	Results []*runResult   `json:"results"`
}

func environment(seed uint64, seconds float64) map[string]any {
	env := map[string]any{
		"go": runtime.Version(), "nproc": runtime.NumCPU(),
		"gomaxprocs": maxProcs(), "seed": seed, "seconds": seconds,
		"cpu_model": "unknown", "commit": "unknown",
	}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(info), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				env["cpu_model"] = strings.TrimSpace(v)
				break
			}
		}
	}
	if rev, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		env["commit"] = strings.TrimSpace(string(rev))
	}
	return env
}

// runAll runs the five workloads sequentially, one child process per
// workload and pass, so peak_rss_mb and setup_s start clean every time.
func runAll(seed uint64, seconds float64, quick bool, outPath string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	file := resultFile{Env: environment(seed, seconds)}
	failed := false
	for _, w := range workloads {
		for _, traced := range []string{"0", "1"} {
			args := []string{"--workload", w.Name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", traced}
			if quick {
				args = append(args, "--quick")
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			var res *runResult
			for _, l := range strings.Split(string(out), "\n") {
				if rest, ok := strings.CutPrefix(l, "detail "); ok {
					if jerr := json.Unmarshal([]byte(rest), &res); jerr != nil {
						return fmt.Errorf("%s: %w", w.Name, jerr)
					}
				} else if l != "" && !strings.HasPrefix(l, "{") {
					fmt.Println(l)
				}
			}
			if res == nil {
				return fmt.Errorf("%s --trace %s printed no result: %v", w.Name, traced, err)
			}
			if err != nil {
				failed = true
			}
			file.Results = append(file.Results, res)
		}
	}
	if outPath != "" {
		b, err := json.MarshalIndent(file, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if failed {
		return fmt.Errorf("an output check failed (see PROBLEM lines)")
	}
	return nil
}

// verdict judges one end-to-end metric of run b against base a: same,
// worse or better by more than the metric's bound, or unresolved when
// either side's own run-to-run spread is wider than the bound.
func verdict(d metricDef, a, b value) (ratio float64, v string) {
	ratio = b.Value / a.Value
	change := ratio - 1
	if d.Better == "higher" {
		change = -change
	}
	spread := func(x value) float64 {
		if len(x.Raw) < 2 || x.Value == 0 {
			return 0
		}
		return (x.Q3 - x.Q1) / x.Value
	}
	switch {
	case max(spread(a), spread(b)) > d.Bound:
		return ratio, "unresolved"
	case change > d.Bound:
		return ratio, "worse"
	case change < -d.Bound:
		return ratio, "better"
	}
	return ratio, "same"
}

func compareFiles(w io.Writer, pathA, pathB string) (worse bool, err error) {
	load := func(path string) (map[string]*runResult, error) {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var f resultFile
		if err := json.Unmarshal(b, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out := map[string]*runResult{}
		for _, r := range f.Results {
			if !r.Trace {
				out[r.Workload] = r
			}
		}
		return out, nil
	}
	a, err := load(pathA)
	if err != nil {
		return false, err
	}
	b, err := load(pathB)
	if err != nil {
		return false, err
	}
	var names []string
	for n := range a {
		if b[n] != nil {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-16s %-20s %14s %18s %14s %18s %9s  %s\n", "workload", "metric", "A median", "A q1..q3", "B median", "B q1..q3", "B/A", "verdict")
	for _, n := range names {
		for _, d := range endToEnd {
			va, vb := a[n].Metrics[d.Name], b[n].Metrics[d.Name]
			ratio, v := verdict(d, va, vb)
			worse = worse || v == "worse"
			iqr := func(x value) string {
				if len(x.Raw) < 2 {
					return "-"
				}
				return fmt.Sprintf("%.6g..%.6g", x.Q1, x.Q3)
			}
			fmt.Fprintf(w, "%-16s %-20s %14.6g %18s %14.6g %18s %9.4f  %s\n", n, d.Name, va.Value, iqr(va), vb.Value, iqr(vb), ratio, v)
		}
		if a[n].ResultHash != b[n].ResultHash || a[n].ScheduleHash != b[n].ScheduleHash {
			fmt.Fprintf(w, "%-16s simulated results differ: result_hash %s vs %s, schedule_hash %s vs %s\n",
				n, a[n].ResultHash, b[n].ResultHash, a[n].ScheduleHash, b[n].ScheduleHash)
		}
	}
	return worse, nil
}
