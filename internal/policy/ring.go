// Package policy implements the provider-side scheduling and QoS policies
// of paper §4.3, cleanly separated from the service mechanisms they drive:
//
//   - locality-aware ring configuration (example #1),
//   - best-fit fair flow assignment, FFA (example #2, Hedera-style),
//   - priority flow assignment, PFA (example #3),
//   - time-window traffic scheduling, TS (example #4, CASSINI-style).
//
// Policies are pure functions from a cluster view to strategies / route
// maps / schedules; the Controller pushes their outputs through the
// deployment's management API.
package policy

import (
	"cmp"
	"slices"

	"mccs/internal/spec"
	"mccs/internal/topo"
)

// LocalityRing computes the locality-aware ring order for a communicator
// (paper example #1): ranks are grouped by host and hosts by rack, then
// chained sequentially, which minimizes the number of ring edges that
// cross rack boundaries (at most two per occupied rack). The order is the
// ranks sorted by (rack, host, rank), racks and hosts in ID order; it is
// the one allocation a call makes.
func LocalityRing(cluster *topo.Cluster, ranks []spec.RankInfo) []int {
	order := make([]int, len(ranks))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(i, j int) int {
		a, b := &ranks[i], &ranks[j]
		return cmp.Or(cmp.Compare(cluster.RackOf(a.Host), cluster.RackOf(b.Host)),
			cmp.Compare(a.Host, b.Host), cmp.Compare(a.Rank, b.Rank))
	})
	for i, idx := range order {
		order[i] = ranks[idx].Rank
	}
	return order
}

// channelCount is the ring count the strategy providers and the autotuner
// give a communicator: one ring per equal-cost inter-host path, capped by
// maxChannels (0 = no cap) and by the fewest ranks any of its hosts holds,
// and at least 1. Each rank brings one affinity NIC, so a host with k ranks
// feeds k rings; beyond that, extra rings share NICs and add nothing.
func channelCount(cluster *topo.Cluster, info *spec.CommInfo, maxChannels int) int {
	nch := pathDiversity(cluster, info.Ranks)
	if maxChannels > 0 && nch > maxChannels {
		nch = maxChannels
	}
	perHost := make(map[topo.HostID]int)
	for _, ri := range info.Ranks {
		perHost[ri.Host]++
	}
	for _, k := range perHost {
		nch = min(nch, k)
	}
	return max(nch, 1)
}

// pathDiversity estimates the number of equal-cost inter-host paths
// available to a communicator (the spine count in a Clos).
func pathDiversity(cluster *topo.Cluster, ranks []spec.RankInfo) int {
	// Maximum over host pairs relative to the first host: same-rack
	// pairs see a single path, cross-rack pairs see one per spine.
	best := 1
	var firstHost topo.HostID = -1
	for _, ri := range ranks {
		if firstHost == -1 {
			firstHost = ri.Host
			continue
		}
		if ri.Host == firstHost {
			continue
		}
		a := cluster.Hosts[firstHost].NICs[0]
		b := cluster.Hosts[ri.Host].NICs[0]
		if n := len(cluster.PathsBetweenNICs(a, b)); n > best {
			best = n
		}
	}
	return best
}

// RingStrategyOptions configures the MCCS strategy providers.
type RingStrategyOptions struct {
	// MaxChannels caps the channel (ring) count; 0 means one ring per
	// equal-cost path (the paper's §6.5 setting), capped at the number
	// of NICs per rank so each ring has a NIC to itself.
	MaxChannels int
	// PinRoutes assigns channel i to path i (MCCS full). False leaves
	// routing to ECMP (the MCCS(-FA) ablation).
	PinRoutes bool
	// TreeThreshold enables binomial-tree execution for dense rooted
	// collectives below this many output bytes (0 = rings only). A
	// provider can flip this per communicator without tenant changes —
	// the "custom, proprietary collective approaches" flexibility the
	// paper highlights.
	TreeThreshold int64
}

// OptimalRingStrategy returns a StrategyProvider implementing the MCCS
// control plane: locality-aware rings on every channel, one channel per
// equal-cost path, optionally pinned to distinct paths.
func OptimalRingStrategy(opts RingStrategyOptions) func(*topo.Cluster, *spec.CommInfo) spec.Strategy {
	return func(cluster *topo.Cluster, info *spec.CommInfo) spec.Strategy {
		order := LocalityRing(cluster, info.Ranks)
		nch := channelCount(cluster, info, opts.MaxChannels)
		st := spec.RingStrategy(order, info.Ranks, nch, opts.PinRoutes)
		st.TreeThreshold = opts.TreeThreshold
		return st
	}
}
