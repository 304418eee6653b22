package metrics

import (
	"math"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2})
	if s.N != 4 || s.Mean != 2.5 {
		t.Errorf("summary = %+v", s)
	}
	if s.P50 != 2.5 {
		t.Errorf("p50 = %g", s.P50)
	}
	empty := Summarize(nil)
	if empty.N != 0 || empty.Mean != 0 {
		t.Errorf("empty summary = %+v", empty)
	}
	one := Summarize([]float64{7})
	if one.P5 != 7 || one.P95 != 7 || one.Mean != 7 {
		t.Errorf("single summary = %+v", one)
	}
}

func TestPercentileInterpolation(t *testing.T) {
	sorted := []float64{0, 10, 20, 30, 40}
	cases := []struct{ p, want float64 }{
		{0, 0}, {1, 40}, {0.5, 20}, {0.25, 10}, {0.125, 5},
	}
	for _, tc := range cases {
		if got := Percentile(sorted, tc.p); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Percentile(%g) = %g, want %g", tc.p, got, tc.want)
		}
	}
	if Percentile(nil, 0.5) != 0 {
		t.Error("empty percentile not 0")
	}
}

func TestCDF(t *testing.T) {
	pts := CDF([]float64{3, 1, 2})
	if len(pts) != 3 {
		t.Fatalf("cdf len = %d", len(pts))
	}
	if pts[0].Value != 1 || pts[2].Value != 3 {
		t.Errorf("cdf not sorted: %+v", pts)
	}
	if pts[2].Fraction != 1 {
		t.Errorf("last fraction = %g", pts[2].Fraction)
	}
	if CDF(nil) != nil {
		t.Error("empty cdf not nil")
	}
}

func TestFormatters(t *testing.T) {
	cases := map[int64]string{
		512:       "512B",
		32 << 10:  "32KB",
		128 << 20: "128MB",
		2 << 30:   "2GB",
		1500:      "1500B",
	}
	for b, want := range cases {
		if got := HumanBytes(b); got != want {
			t.Errorf("HumanBytes(%d) = %q, want %q", b, got, want)
		}
	}
}

func TestMean(t *testing.T) {
	if Summarize([]float64{3, 1, 2}).Mean != 2 {
		t.Error("mean wrong")
	}
	if Summarize(nil).Mean != 0 {
		t.Error("empty mean not 0")
	}
}

// Property: Percentile matches an independently written linear-
// interpolation reference at random quantiles of random samples.
func TestQuickPercentileReference(t *testing.T) {
	// naive recomputes the p-quantile from first principles: position
	// p*(n-1) in the sorted sample, linearly interpolated.
	naive := func(sorted []float64, p float64) float64 {
		n := len(sorted)
		pos := p * float64(n-1)
		lo := int(pos)
		if lo >= n-1 {
			return sorted[n-1]
		}
		return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
	}
	f := func(vals []float64, raw uint16) bool {
		var clean []float64
		for _, v := range vals {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				clean = append(clean, v)
			}
		}
		if len(clean) == 0 {
			return true
		}
		sort.Float64s(clean)
		p := float64(raw) / math.MaxUint16
		got, want := Percentile(clean, p), naive(clean, p)
		return math.Abs(got-want) <= 1e-9*(1+math.Abs(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Degenerate samples: a single value and an all-equal sample collapse
// every statistic onto that value.
func TestSummarizeDegenerate(t *testing.T) {
	one := Summarize([]float64{42})
	if one.N != 1 || one.Mean != 42 ||
		one.P5 != 42 || one.P50 != 42 || one.P95 != 42 || one.P99 != 42 {
		t.Errorf("N=1 summary = %+v", one)
	}
	eq := Summarize([]float64{3, 3, 3, 3, 3, 3, 3})
	if eq.N != 7 || eq.Mean != 3 ||
		eq.P5 != 3 || eq.P50 != 3 || eq.P95 != 3 || eq.P99 != 3 {
		t.Errorf("all-equal summary = %+v", eq)
	}
}

// P99 sits where linear interpolation puts it: for 101 equally spaced
// values 0..100 it lands exactly on 99, and for a heavy-tailed sample it
// exceeds P95.
func TestP99(t *testing.T) {
	vals := make([]float64, 101)
	for i := range vals {
		vals[i] = float64(i)
	}
	s := Summarize(vals)
	if s.P99 != 99 {
		t.Errorf("P99 of 0..100 = %g, want 99", s.P99)
	}
	tail := append(make([]float64, 99), 1000, 2000) // 99 zeros + 2 outliers
	ts := Summarize(tail)
	if ts.P99 <= ts.P95 {
		t.Errorf("heavy tail: P99 %g <= P95 %g", ts.P99, ts.P95)
	}
}

func TestSummaryFormatting(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if got := s.String(); got == "" || got != s.String() {
		t.Errorf("String unstable: %q", got)
	}
	for _, want := range []string{"p99", "n=4"} {
		if !strings.Contains(s.String(), want) {
			t.Errorf("String %q missing %q", s.String(), want)
		}
	}
}

// Property: non-finite values are rejected — a sample with NaN/Inf mixed
// in summarizes identically to its finite subset, and an all-non-finite
// sample yields the zero Summary.
func TestQuickSummarizeRejectsNonFinite(t *testing.T) {
	f := func(vals []float64, posns []uint8) bool {
		var finite []float64
		for _, v := range vals {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				finite = append(finite, v)
			}
		}
		// Splice non-finite junk into copies of the finite sample at
		// generator-chosen positions.
		junk := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
		dirty := append([]float64(nil), finite...)
		for i, pos := range posns {
			at := 0
			if len(dirty) > 0 {
				at = int(pos) % (len(dirty) + 1)
			}
			dirty = append(dirty[:at], append([]float64{junk[i%len(junk)]}, dirty[at:]...)...)
		}
		return Summarize(dirty) == Summarize(finite)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	if got := Summarize([]float64{math.NaN(), math.Inf(1)}); got != (Summary{}) {
		t.Errorf("all-non-finite summary = %+v", got)
	}
}

// Property: Summarize is order-invariant and percentiles are monotone and
// bounded by the sample's min/max.
func TestQuickSummaryInvariants(t *testing.T) {
	f := func(vals []float64) bool {
		clean := vals[:0]
		for _, v := range vals {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				clean = append(clean, v)
			}
		}
		if len(clean) == 0 {
			return true
		}
		s1 := Summarize(clean)
		shuf := append([]float64(nil), clean...)
		sort.Sort(sort.Reverse(sort.Float64Slice(shuf)))
		s2 := Summarize(shuf)
		if s1 != s2 {
			return false
		}
		return slices.Min(clean) <= s1.P5 && s1.P5 <= s1.P50 && s1.P50 <= s1.P95 &&
			s1.P95 <= s1.P99 && s1.P99 <= slices.Max(clean)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
