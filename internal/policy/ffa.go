package policy

import (
	"sort"

	"mccs/internal/netsim"
	"mccs/internal/spec"
	"mccs/internal/topo"
)

// Flow is one directed inter-host connection extracted from a
// communicator's strategy — the unit FFA/PFA assign routes to.
type Flow struct {
	App     spec.AppID
	Comm    spec.CommID
	Key     spec.ConnKey
	SrcNIC  topo.NICID
	DstNIC  topo.NICID
	Demand  float64           // bytes/sec the flow would like (its NIC rate)
	paths   [][]netsim.LinkID // the fabric's cached path list, aliased: read-only
	prioApp bool
}

// ExtractFlows enumerates the inter-host connections of the given
// communicators: for every channel, each consecutive ring pair on
// different hosts in both directions (rings are used forward by most
// collectives and backward by rooted reduces).
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

func (a Assignment) set(comm spec.CommID, key spec.ConnKey, route int) {
	m, ok := a[comm]
	if !ok {
		m = make(map[spec.ConnKey]int)
		a[comm] = m
	}
	m[key] = route
}

// FFA implements best-fit fair flow assignment (paper example #2): a
// Hedera-style greedy that places each flow on the path with the least
// accumulated demand, round-robining between applications so no tenant
// systematically gets the leftovers.
func FFA(cluster *topo.Cluster, comms []spec.CommInfo) Assignment {
	a := make(Assignment)
	assignInto(a, ExtractFlows(cluster, comms), make([]float64, cluster.Net.NumLinks()), nil)
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
			f.prioApp = true
			high = append(high, f)
		} else {
			low = append(low, f)
		}
	}
	reserved := make(map[int]bool)
	for _, r := range reservedRoutes {
		reserved[r] = true
	}
	load := make([]float64, cluster.Net.NumLinks()) // accumulated demand, by LinkID
	a := make(Assignment)
	// Low-priority first, restricted to non-reserved routes; then
	// high-priority with free choice (they see low-priority load and
	// will prefer the clean reserved paths).
	assignInto(a, low, load, func(route int) bool { return !reserved[route] })
	assignInto(a, high, load, nil)
	return a
}

// interleaveByApp returns the order flows are placed in, as indices into
// flows: round-robin across applications for fairness (the paper: "We
// round-robin between flows from different jobs"), applications in name
// order, each application's flows in extraction order.
func interleaveByApp(flows []Flow) []int {
	byApp := make(map[spec.AppID][]int)
	var apps []spec.AppID
	for i := range flows {
		app := flows[i].App
		if _, ok := byApp[app]; !ok {
			apps = append(apps, app)
		}
		byApp[app] = append(byApp[app], i)
	}
	sort.Slice(apps, func(i, j int) bool { return apps[i] < apps[j] })
	order := make([]int, 0, len(flows))
	for round := 0; len(order) < len(flows); round++ {
		for _, app := range apps {
			if idx := byApp[app]; round < len(idx) {
				order = append(order, idx[round])
			}
		}
	}
	return order
}

// assignInto performs the best-fit step on flows, interleaved across
// applications: each flow goes to the allowed path whose most-loaded link
// has the least accumulated demand after adding the flow (minimal excess
// bandwidth demand). load is indexed by LinkID.
func assignInto(a Assignment, flows []Flow, load []float64, allowed func(route int) bool) {
	for _, i := range interleaveByApp(flows) {
		f := &flows[i]
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
		a.set(f.Comm, f.Key, best)
	}
}
