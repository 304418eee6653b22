package policy

import (
	"cmp"
	"slices"

	"mccs/internal/netsim"
	"mccs/internal/spec"
	"mccs/internal/topo"
)

// Flow is one directed inter-host connection extracted from a
// communicator's strategy — the unit FFA/PFA assign routes to.
type Flow struct {
	App    spec.AppID
	Comm   spec.CommID
	Key    spec.ConnKey
	SrcNIC topo.NICID
	DstNIC topo.NICID
	Demand float64           // bytes/sec the flow would like (its NIC rate)
	paths  [][]netsim.LinkID // the fabric's cached path list, aliased: read-only
}

// ExtractFlows enumerates the inter-host connections of the given
// communicators: for every channel, each consecutive ring pair on
// different hosts, forward only (the rank at position i to the one at
// i+1, the direction every ring collective but a rooted Reduce sends in),
// communicator by communicator. The backward connections a rooted Reduce
// uses (next to prev) are not extracted, so FFA and PFA leave them on
// their channel's route.
func ExtractFlows(cluster *topo.Cluster, comms []spec.CommInfo) []Flow {
	flows := make([]Flow, 0, countFlows(comms))
	for _, ci := range comms {
		n := ci.NumRanks()
		for chIdx, ch := range ci.Strategy.Channels {
			for pos := 0; pos < n; pos++ {
				from := ch.Order[pos]
				to := ch.Order[(pos+1)%n]
				if from == to {
					continue
				}
				fi, ti := ci.Ranks[from], ci.Ranks[to]
				if fi.Host == ti.Host {
					continue
				}
				flows = append(flows, Flow{
					App: ci.App, Comm: ci.ID,
					Key:    spec.ConnKey{Channel: chIdx, FromRank: from, ToRank: to},
					SrcNIC: fi.NIC, DstNIC: ti.NIC,
					Demand: cluster.NICs[fi.NIC].Rate,
					paths:  cluster.PathsBetweenNICs(fi.NIC, ti.NIC),
				})
			}
		}
	}
	return flows
}

// countFlows is the number of connections ExtractFlows returns for comms,
// so it sizes its slice once.
func countFlows(comms []spec.CommInfo) int {
	count := 0
	for _, ci := range comms {
		n := ci.NumRanks()
		for _, ch := range ci.Strategy.Channels {
			for pos := 0; pos < n; pos++ {
				from, to := ch.Order[pos], ch.Order[(pos+1)%n]
				if from != to && ci.Ranks[from].Host != ci.Ranks[to].Host {
					count++
				}
			}
		}
	}
	return count
}

// Assignment is a policy's routing decision: per communicator, per
// connection, the equal-cost path index to pin.
type Assignment map[spec.CommID]map[spec.ConnKey]int

// newAssignment returns an empty assignment for flows, ExtractFlows'
// output for comms: each communicator's inner map is made at its final
// size, since ExtractFlows emits a communicator's flows contiguously, so
// filling it neither grows nor rehashes it. A communicator without flows
// gets no map, as it gets no routes.
func newAssignment(flows []Flow, comms int) Assignment {
	a := make(Assignment, comms)
	for i := 0; i < len(flows); {
		j := i + 1
		for j < len(flows) && flows[j].Comm == flows[i].Comm {
			j++
		}
		if _, ok := a[flows[i].Comm]; !ok {
			a[flows[i].Comm] = make(map[spec.ConnKey]int, j-i)
		}
		i = j
	}
	return a
}

// FFA implements best-fit fair flow assignment (paper example #2): a
// Hedera-style greedy that places each flow on the path with the least
// accumulated demand, round-robining between applications so no tenant
// systematically gets the leftovers.
func FFA(cluster *topo.Cluster, comms []spec.CommInfo) Assignment {
	flows := ExtractFlows(cluster, comms)
	a := newAssignment(flows, len(comms))
	assignInto(a, flows, make([]float64, cluster.Net.NumLinks()), nil)
	return a
}

// PFA implements priority flow assignment (paper example #3): some routes
// (path indices) are reserved for applications at or above prioThreshold.
// Low-priority flows are fitted first using only non-reserved routes; then
// high-priority flows pick the best among all routes.
func PFA(cluster *topo.Cluster, comms []spec.CommInfo, reservedRoutes []int, prioThreshold int) Assignment {
	prioApps := make(map[spec.AppID]bool)
	for _, ci := range comms {
		if ci.Priority >= prioThreshold {
			prioApps[ci.App] = true
		}
	}
	flows := ExtractFlows(cluster, comms)
	var low, high []Flow
	for _, f := range flows {
		if prioApps[f.App] {
			high = append(high, f)
		} else {
			low = append(low, f)
		}
	}
	load := make([]float64, cluster.Net.NumLinks()) // accumulated demand, by LinkID
	a := newAssignment(flows, len(comms))
	// Low-priority first, restricted to non-reserved routes; then
	// high-priority with free choice (they see low-priority load and
	// will prefer the clean reserved paths).
	assignInto(a, low, load, func(route int) bool { return !slices.Contains(reservedRoutes, route) })
	assignInto(a, high, load, nil)
	return a
}

// placement is one flow's turn in interleaveByApp's order: flows[flow]
// is its app's round-th flow in extraction order.
type placement struct{ flow, round int }

// interleaveByApp returns the order flows are placed in: round-robin across
// applications for fairness (the paper: "We round-robin between flows from
// different jobs"), applications in name order, each application's flows in
// extraction order. It is two stable sorts over one buffer: by app, which
// numbers each flow's round within its app, then by round.
func interleaveByApp(flows []Flow) []placement {
	order := make([]placement, len(flows))
	for i := range order {
		order[i].flow = i
	}
	slices.SortStableFunc(order, func(a, b placement) int {
		return cmp.Compare(flows[a.flow].App, flows[b.flow].App)
	})
	for i := 1; i < len(order); i++ {
		if flows[order[i].flow].App == flows[order[i-1].flow].App {
			order[i].round = order[i-1].round + 1
		}
	}
	slices.SortStableFunc(order, func(a, b placement) int { return cmp.Compare(a.round, b.round) })
	return order
}

// assignInto performs the best-fit step on flows, interleaved across
// applications: each flow goes to the allowed path whose most-loaded link
// has the least accumulated demand after adding the flow (minimal excess
// bandwidth demand). load is indexed by LinkID.
func assignInto(a Assignment, flows []Flow, load []float64, allowed func(route int) bool) {
	for _, p := range interleaveByApp(flows) {
		f := &flows[p.flow]
		if len(f.paths) == 0 {
			continue
		}
		best := -1
		bestCost := 0.0
		for r, path := range f.paths {
			if allowed != nil && !allowed(r) {
				continue
			}
			cost := 0.0
			for _, l := range path {
				if c := load[l] + f.Demand; c > cost {
					cost = c
				}
			}
			if best == -1 || cost < bestCost {
				best = r
				bestCost = cost
			}
		}
		if best == -1 {
			best = 0 // every route reserved: fall back rather than drop
		}
		for _, l := range f.paths[best] {
			load[l] += f.Demand
		}
		a[f.Comm][f.Key] = best
	}
}
