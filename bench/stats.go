package main

import (
	"math"
	"sort"
	"time"
)

// fnv64 is a running FNV-1a-style hash that folds a whole 64-bit word per
// step: the scheduler observer calls it twice per simulated event, so it
// has to cost next to nothing.
type fnv64 uint64

func newFNV() fnv64 { return 14695981039346656037 }

func (h *fnv64) mix(v uint64) { *h = (*h ^ fnv64(v)) * 1099511628211 }

// quantile returns the q-quantile of sorted by linear interpolation
// between closest ranks. sorted must be non-empty and ascending.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(sorted)-1)
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

// quartiles returns the first quartile, median and third quartile of vs.
func quartiles(vs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return quantile(s, 0.25), quantile(s, 0.5), quantile(s, 0.75)
}

func median(vs []float64) float64 {
	_, med, _ := quartiles(vs)
	return med
}

// tailPercentile returns the highest of p99, p95, p90 and p75 that still
// has at least ten samples beyond it, with the percentile chosen; below 40
// samples no tail is claimed and the median is returned with p = 50.
func tailPercentile(vs []float64) (value float64, p int) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	for _, p := range []int{99, 95, 90, 75} {
		if float64(len(s))*float64(100-p)/100 >= 10 {
			return quantile(s, float64(p)/100), p
		}
	}
	return quantile(s, 0.5), 50
}

// probe times fn, which runs n ops and returns the host time they took,
// in batches and returns the median cost of one op in ns.
func probe(batches, n int, fn func(n int) time.Duration) float64 {
	per := make([]float64, batches)
	for i := range per {
		per[i] = float64(fn(n)) / float64(n)
	}
	return median(per)
}

// resultOK checks an ar_small result: AllReduce of rank+1 over n ranks is
// n(n+1)/2 in every element, AllGather is the rank-ordered concatenation.
// The two ops alternate on one receive buffer, so a collective that did
// nothing leaves the other op's pattern behind and is caught. Every 13th
// element and the last are looked at, which touches every slice.
func resultOK(got []float32, op collOp, n int) bool {
	per := len(got) / n
	want := func(j int) float32 {
		if op.AllGather {
			return float32(j/per + 1)
		}
		return float32(n * (n + 1) / 2)
	}
	for j := 0; j < len(got); j += 13 {
		if got[j] != want(j) {
			return false
		}
	}
	return got[len(got)-1] == want(len(got)-1)
}
