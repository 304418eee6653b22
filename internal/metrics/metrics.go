// Package metrics provides the statistics the evaluation harnesses report:
// summaries with percentile intervals (the paper's error bars), CDFs
// (Fig. 11) and small formatting helpers.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Summary describes a sample of measurements.
type Summary struct {
	N                 int
	Mean              float64
	P5, P50, P95, P99 float64
}

// Summarize computes a Summary. Non-finite values (NaN, ±Inf) are
// rejected from the sample: a single corrupted measurement — a timing
// divide-by-zero, an uninitialized slot — would otherwise poison every
// statistic (NaN propagates through sums, Inf saturates the mean). An
// empty or all-non-finite input yields a zero Summary.
func Summarize(vals []float64) Summary {
	s := make([]float64, 0, len(vals))
	for _, v := range vals {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			s = append(s, v)
		}
	}
	if len(s) == 0 {
		return Summary{}
	}
	sort.Float64s(s)
	var sum float64
	for _, v := range s {
		sum += v
	}
	return Summary{
		N:    len(s),
		Mean: sum / float64(len(s)),
		P5:   Percentile(s, 0.05),
		P50:  Percentile(s, 0.50),
		P95:  Percentile(s, 0.95),
		P99:  Percentile(s, 0.99),
	}
}

// String renders the summary the way the evaluation tables report a
// cell: mean with the tail percentiles that bound it.
func (s Summary) String() string {
	return fmt.Sprintf("mean %g [p5 %g, p50 %g, p95 %g, p99 %g] n=%d", s.Mean, s.P5, s.P50, s.P95, s.P99, s.N)
}

// Percentile returns the p-quantile (0 <= p <= 1) of a sorted sample using
// linear interpolation.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	Value    float64
	Fraction float64
}

// CDF returns the empirical CDF of the sample.
func CDF(vals []float64) []CDFPoint {
	if len(vals) == 0 {
		return nil
	}
	s := make([]float64, len(vals))
	copy(s, vals)
	sort.Float64s(s)
	out := make([]CDFPoint, len(s))
	for i, v := range s {
		out[i] = CDFPoint{Value: v, Fraction: float64(i+1) / float64(len(s))}
	}
	return out
}

// HumanBytes formats a byte count the way the paper labels data sizes.
func HumanBytes(b int64) string {
	switch {
	case b >= 1<<30 && b%(1<<30) == 0:
		return fmt.Sprintf("%dGB", b>>30)
	case b >= 1<<20 && b%(1<<20) == 0:
		return fmt.Sprintf("%dMB", b>>20)
	case b >= 1<<10 && b%(1<<10) == 0:
		return fmt.Sprintf("%dKB", b>>10)
	default:
		return fmt.Sprintf("%dB", b)
	}
}
