package policy

import (
	"math/rand"
)

// This file implements the Fig. 3 analysis: how many cross-rack flows a
// randomly ordered ring produces relative to the optimal (locality-aware)
// ring, as a function of job size. The paper derives this from a
// production trace on a 2-hosts-per-rack cluster (Fig. 3a) and a
// simulation with 4 hosts per rack (Fig. 3b); both reduce to the same
// combinatorial question because intra-host GPU ordering is always
// optimized — only the *host* ordering of the ring is random.

// CrossRackPoint is one job size's ratio statistics.
type CrossRackPoint struct {
	JobGPUs int
	// Mean and Worst are the expected and maximum cross-rack flow
	// counts of a random host ring, normalized to the optimal ring.
	Mean  float64
	Worst float64
	// Analytic is the closed-form expectation k(H-k)/((H-1)) / R for H
	// hosts in racks of k (1 when the job fits one rack).
	Analytic float64
}

// crossRackCount returns the cross-rack flow count of a host-level ring
// order, where rackOf[h] is host h's rack.
func crossRackCount(order []int, rackOf []int) int {
	n := len(order)
	if n < 2 {
		return 0
	}
	c := 0
	for i := 0; i < n; i++ {
		if rackOf[order[i]] != rackOf[order[(i+1)%n]] {
			c++
		}
	}
	return c
}

// CrossRackSweep Monte-Carlo-estimates the Fig. 3 curve for a cluster
// shape. Jobs are perfectly packed: a job of G GPUs occupies
// G/gpusPerHost whole hosts filling racks in order.
func CrossRackSweep(gpusPerHost, hostsPerRack int, jobSizes []int, trials int, seed int64) []CrossRackPoint {
	rng := rand.New(rand.NewSource(seed))
	var out []CrossRackPoint
	for _, g := range jobSizes {
		hosts := g / gpusPerHost
		if hosts < 1 {
			hosts = 1
		}
		racks := (hosts + hostsPerRack - 1) / hostsPerRack
		rackOf := make([]int, hosts)
		for h := range rackOf {
			rackOf[h] = h / hostsPerRack
		}
		pt := CrossRackPoint{JobGPUs: g, Analytic: analyticRatio(hosts, hostsPerRack, racks)}
		if racks <= 1 || hosts < 2 {
			pt.Mean, pt.Worst = 1, 1
			out = append(out, pt)
			continue
		}
		opt := float64(racks) // optimal ring: one entry and one exit per rack
		var sum float64
		worst := 0.0
		for t := 0; t < trials; t++ {
			order := rng.Perm(hosts)
			r := float64(crossRackCount(order, rackOf)) / opt
			sum += r
			if r > worst {
				worst = r
			}
		}
		pt.Mean = sum / float64(trials)
		pt.Worst = worst
		out = append(out, pt)
	}
	return out
}

// analyticRatio is the closed-form expectation of the cross-rack ratio:
// a random cyclic host order crosses racks with probability
// (H - k)/(H - 1) per edge (k hosts per full rack), giving
// E = H (H - k)/(H - 1), normalized by the optimal R crossings. It
// asymptotes to k as jobs grow — the paper's "worst case becomes 4x" with
// k = 4 hosts per rack.
func analyticRatio(hosts, hostsPerRack, racks int) float64 {
	if racks <= 1 || hosts < 2 {
		return 1
	}
	h := float64(hosts)
	k := float64(hostsPerRack)
	e := h * (h - k) / (h - 1)
	return e / float64(racks)
}
