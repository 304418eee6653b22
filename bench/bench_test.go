package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestOneImportSurface keeps every mccs/... import in adapter.go, so the
// symbol list in README.md is the whole API the benchmark depends on.
func TestOneImportSurface(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		parsed, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range parsed.Imports {
			if strings.HasPrefix(strings.Trim(imp.Path.Value, `"`), "mccs/") && f != "adapter.go" {
				t.Errorf("%s imports %s; only adapter.go may import mccs/...", f, imp.Path.Value)
			}
		}
	}
}

// TestBenchmarkJSONMatches keeps the root BENCHMARK.json and the metric
// tables in this package in step, and inside the contract's limits.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var bj struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the code %d", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the code %+v", kind, i, g, w)
			}
			if !nameRE.MatchString(g.Name) || !unitRE.MatchString(g.Unit) || seen[g.Name] {
				t.Errorf("%s[%d]: name %q or unit %q breaks the contract", kind, i, g.Name, g.Unit)
			}
			seen[g.Name] = true
			switch {
			case bounded && (g.Bound == nil || *g.Bound != w.Bound || w.Bound <= 0 || w.Bound > 0.25):
				t.Errorf("%s: bound %v in BENCHMARK.json, %v in the code", g.Name, g.Bound, w.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: per-layer metrics have no bound", g.Name)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd, true)
	check("per_layer", bj.PerLayer, perLayer(), false)
	if len(bj.PerLayer) > 128 || len(bj.EndToEnd) > 16 {
		t.Errorf("too many metrics: %d end-to-end, %d per-layer", len(bj.EndToEnd), len(bj.PerLayer))
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the code %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].Name || !nameRE.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the code", i, w.Name, workloads[i].Name)
		}
		seen[w.Name] = true
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 || len(bj.Paths) != 1 || bj.Paths[0] != "bench" || len(raw) > 64<<10 {
		t.Errorf("run_seconds %d, paths %v, %d bytes", bj.RunSeconds, bj.Paths, len(raw))
	}
}

func TestQuartilesAndTail(t *testing.T) {
	vs := []float64{9, 1, 5, 3, 7}
	if q1, med, q3 := quartiles(vs); q1 != 3 || med != 5 || q3 != 7 {
		t.Errorf("quartiles = %v %v %v, want 3 5 7", q1, med, q3)
	}
	if vs[0] != 9 {
		t.Error("quartiles reordered its input")
	}
	if m := median([]float64{1, 2, 3, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	seq := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i)
		}
		return out
	}
	// The tail is the highest percentile with at least ten samples beyond it.
	for _, tc := range []struct{ n, wantP int }{{39, 50}, {40, 75}, {100, 90}, {200, 95}, {999, 95}, {1000, 99}} {
		v, p := tailPercentile(seq(tc.n))
		if p != tc.wantP {
			t.Errorf("n=%d: tail percentile p%d, want p%d", tc.n, p, tc.wantP)
		}
		if want := float64(p) / 100 * float64(tc.n-1); math.Abs(v-want) > 1e-9 {
			t.Errorf("n=%d: p%d = %v, want %v", tc.n, p, v, want)
		}
	}
}

func TestFoldProfile(t *testing.T) {
	samples := []profSample{
		// A layer's malloc is charged to the layer, and counted as malloc.
		{Stack: []string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.newobject", "mccs/internal/transport.(*Conn).startNext", "mccs/internal/proxy.(*Runner).runChannel", "mccs/internal/sim.(*Scheduler).Go.func1"}, CPUNS: 10},
		// Nearest frame wins: sim's channel send under a proxy caller is sim's.
		{Stack: []string{"runtime.futex", "runtime.wakep", "runtime.ready", "runtime.goready", "runtime.chansend", "mccs/internal/sim.(*Proc).park", "mccs/internal/proxy.(*Runner).loop"}, CPUNS: 20},
		// Generic receivers and nested packages still resolve to the package.
		{Stack: []string{"mccs/internal/sim.(*Queue[go.shape.int]).Pop", "mccs/internal/proxy.(*Runner).loop"}, CPUNS: 5},
		// Packages without a metric of their own, and the benchmark, are "other".
		{Stack: []string{"mccs/internal/harness.RunDynamic", "main.runTenantsDynamic", "main.main"}, CPUNS: 3},
		{Stack: []string{"sort.Float64s", "main.quartiles", "main.main"}, CPUNS: 2},
		// No program frame: the background collector, or the scheduler between goroutines.
		{Stack: []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack", "runtime.gcBgMarkWorker"}, CPUNS: 40},
		{Stack: []string{"runtime.futex", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, CPUNS: 7},
		// An assist marks on the allocating goroutine: gc by category, the layer's by cause.
		{Stack: []string{"runtime.scanobject", "runtime.gcDrainN", "runtime.gcAssistAlloc1", "runtime.gcAssistAlloc", "runtime.mallocgc", "mccs/internal/netsim.(*Fabric).StartFlow"}, CPUNS: 4},
		// A runtime leaf no category claims.
		{Stack: []string{"runtime.nanotime", "time.Now", "mccs/internal/cluster.Run"}, CPUNS: 1},
	}
	byLayer, byCat, total := foldProfile(samples)
	wantLayer := map[string]int64{"transport": 10, "sim": 25, "other": 5, "runtime.gc_bg": 40, "runtime.idle": 7, "netsim": 4, "cluster": 1}
	wantCat := map[string]int64{"runtime.malloc": 10, "runtime.handoff": 27, "mccs.self": 10, "runtime.gc": 44, "runtime.other": 1}
	if total != 92 {
		t.Errorf("total = %d, want 92", total)
	}
	for name, got := range map[string]map[string]int64{"layer": byLayer, "category": byCat} {
		want := wantLayer
		if name == "category" {
			want = wantCat
		}
		var sum int64
		for k, v := range got {
			sum += v
			if want[k] != v {
				t.Errorf("%s %s = %d, want %d", name, k, v, want[k])
			}
		}
		if sum != total || len(got) != len(want) {
			t.Errorf("%s partition sums to %d over %d keys, want %d over %d", name, sum, len(got), total, len(want))
		}
	}
}

// TestParseProfile encodes a two-sample pprof protobuf by hand — one
// location carrying an inlined frame — and decodes it.
func TestParseProfile(t *testing.T) {
	varint := func(v uint64) []byte {
		var b []byte
		for v >= 0x80 {
			b = append(b, byte(v)|0x80)
			v >>= 7
		}
		return append(b, byte(v))
	}
	field := func(n int, v uint64) []byte { return append(varint(uint64(n)<<3), varint(v)...) }
	msg := func(n int, body ...[]byte) []byte {
		b := bytes.Join(body, nil)
		return append(append(varint(uint64(n)<<3|2), varint(uint64(len(b)))...), b...)
	}
	packed := func(n int, vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = append(b, varint(v)...)
		}
		return msg(n, b)
	}
	strs := []string{"", "samples", "count", "leaf", "inlined.caller", "root"}
	var prof []byte
	prof = append(prof, msg(2, packed(1, 1, 2), packed(2, 3, 30))...) // leaf <- inlined.caller <- root, 3 samples
	prof = append(prof, msg(2, field(1, 2), field(2, 1), field(2, 10))...)
	prof = append(prof, msg(4, field(1, 1), msg(4, field(1, 1)), msg(4, field(1, 2)))...)
	prof = append(prof, msg(4, field(1, 2), msg(4, field(1, 3)))...)
	for id, name := range map[uint64]uint64{1: 3, 2: 4, 3: 5} {
		prof = append(prof, msg(5, field(1, id), field(2, name))...)
	}
	for _, s := range strs {
		prof = append(prof, msg(6, []byte(s))...)
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof)
	zw.Close()
	got, err := parseProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || strings.Join(got[0].Stack, " ") != "leaf inlined.caller root" || got[0].Count != 3 || got[0].CPUNS != 30 ||
		strings.Join(got[1].Stack, " ") != "root" || got[1].CPUNS != 10 {
		t.Errorf("parsed %+v", got)
	}
	if _, err := parseProfile([]byte("not gzip")); err == nil {
		t.Error("garbage parsed without error")
	}
}

func TestVerdict(t *testing.T) {
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	lower := metricDef{Name: "cpu_s_per_kop", Better: "lower", Bound: 0.10}
	tight := func(v float64) value { return value{Value: v, Q1: v * 0.99, Q3: v * 1.01, Raw: []float64{v, v}} }
	wide := value{Value: 100, Q1: 90, Q3: 110, Raw: []float64{90, 110}}
	for _, tc := range []struct {
		d    metricDef
		a, b value
		want string
	}{
		{higher, tight(100), tight(95), "same"},
		{higher, tight(100), tight(85), "worse"},
		{higher, tight(100), tight(115), "better"},
		{lower, tight(100), tight(115), "worse"},
		{lower, tight(100), tight(85), "better"},
		{higher, wide, tight(80), "unresolved"},
		{lower, value{Value: 100}, value{Value: 100}, "same"}, // single values (sim metrics) have no spread
	} {
		if _, got := verdict(tc.d, tc.a, tc.b); got != tc.want {
			t.Errorf("%s %v -> %v: %s, want %s", tc.d.Name, tc.a.Value, tc.b.Value, got, tc.want)
		}
	}
}

func TestResultOK(t *testing.T) {
	const n, elems = 8, 64
	reduce, gather := make([]float32, elems), make([]float32, elems)
	for j := range reduce {
		reduce[j], gather[j] = n*(n+1)/2, float32(j/(elems/n)+1)
	}
	if !resultOK(reduce, collOp{Elems: elems}, n) || !resultOK(gather, collOp{AllGather: true, Elems: elems}, n) {
		t.Error("correct results rejected")
	}
	// A collective that did nothing leaves the other op's pattern behind.
	if resultOK(gather, collOp{Elems: elems}, n) || resultOK(reduce, collOp{AllGather: true, Elems: elems}, n) {
		t.Error("stale results accepted")
	}
	reduce[elems-1] = 0
	if resultOK(reduce, collOp{Elems: elems}, n) {
		t.Error("wrong last element accepted")
	}
}

// TestQuickSmoke runs all five workloads, untraced and traced, at about
// 2 % size and checks every named metric is present, finite and tagged.
func TestQuickSmoke(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		for _, traced := range []bool{false, true} {
			res, err := measure(w, 7, 0, traced, true)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d problems=%v", w.Name, traced, res.Correct, res.Attempted, res.Failed, res.Problems)
			}
			defs := endToEnd
			if traced {
				defs = perLayer()
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.Name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.Name]
				if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != d.Unit || v.Kind == "" {
					t.Errorf("%s traced=%v: metric %s = %+v (present %v)", w.Name, traced, d.Name, v, ok)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, d.Name, v.Value)
				}
			}
		}
	}
}
