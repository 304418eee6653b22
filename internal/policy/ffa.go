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
	Demand float64 // bytes/sec the flow would like (its NIC rate)
	// Path is the index, among the flow's equal-cost paths, of the one the
	// last assignment over the flow chose; -1 before one, and for a flow
	// without paths.
	Path  int
	paths [][]netsim.LinkID // the fabric's cached path list, aliased: read-only
}

// Route returns the path Path names, or nil when none was chosen. It is one
// of the fabric's cached paths — the very slice the fabric's ECMP hash
// hands out for the pair — so it is shared and read-only.
func (f *Flow) Route() []netsim.LinkID {
	if f.Path < 0 {
		return nil
	}
	return f.paths[f.Path]
}

// AppendFlows appends the inter-host connections of communicator ci to dst
// and returns the extended slice: for every channel, each consecutive ring
// pair on different hosts, forward only (the rank at position i to the one
// at i+1, the direction every ring collective but a rooted Reduce sends
// in). The backward connections a rooted Reduce uses (next to prev) are not
// extracted, so FFA and PFA leave them on their channel's route.
func AppendFlows(dst []Flow, cluster *topo.Cluster, ci *spec.CommInfo) []Flow {
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
			dst = append(dst, Flow{
				App: ci.App, Comm: ci.ID,
				Key:    spec.ConnKey{Channel: chIdx, FromRank: from, ToRank: to},
				SrcNIC: fi.NIC, DstNIC: ti.NIC,
				Demand: cluster.NICs[fi.NIC].Rate,
				Path:   -1,
				paths:  cluster.PathsBetweenNICs(fi.NIC, ti.NIC),
			})
		}
	}
	return dst
}

// countFlows is the number of connections AppendFlows appends for comms,
// so Extract sizes its buffer once.
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

// Workspace is the scratch of a routing decision, kept from one decision to
// the next, so that a caller that reruns FFA on every change (cluster.Run
// does, on every job arrival and exit) allocates nothing once it has seen
// its largest input: the extracted flows, the per-link loads and the
// placement order with its interleaving scratch. The zero value is ready;
// a Workspace is not safe for concurrent use. FFA and PFA run on a fresh
// one, so the controller's decisions and a reused workspace's are made by
// the same code.
type Workspace struct {
	flows []Flow    // Extract's buffer
	load  []float64 // accumulated demand, by LinkID
	buf   []int32   // interleave's placement order and scratch
}

// Extract returns the flows of comms, communicator by communicator
// (AppendFlows over each), in the workspace's buffer: they stay valid until
// the next Extract.
func (w *Workspace) Extract(cluster *topo.Cluster, comms []spec.CommInfo) []Flow {
	if n := countFlows(comms); cap(w.flows) < n {
		w.flows = make([]Flow, 0, n)
	}
	flows := w.flows[:0]
	for i := range comms {
		flows = AppendFlows(flows, cluster, &comms[i])
	}
	w.flows = flows
	return flows
}

// Assign runs FFA over flows in place: it sets every flow's Path. flows are
// Extract's or the caller's own, as long as each communicator's flows are
// in AppendFlows' order.
func (w *Workspace) Assign(cluster *topo.Cluster, flows []Flow) {
	w.assignInto(flows, w.loads(cluster), nil)
}

// loads returns the workspace's per-link load table for cluster, zeroed.
func (w *Workspace) loads(cluster *topo.Cluster) []float64 {
	n := cluster.Net.NumLinks()
	if cap(w.load) < n {
		w.load = make([]float64, n)
	}
	w.load = w.load[:n]
	clear(w.load)
	return w.load
}

// Assignment is a policy's routing decision: per communicator, per
// connection, the equal-cost path index to pin.
type Assignment map[spec.CommID]map[spec.ConnKey]int

// assignmentOf returns the Paths of flows, assigned, as an Assignment. Each
// communicator's inner map is made at its final size, since a
// communicator's flows are contiguous, so filling it neither grows nor
// rehashes it. A communicator without flows gets no map, as it gets no
// routes; a flow without a path gets no entry.
func assignmentOf(flows []Flow, comms int) Assignment {
	a := make(Assignment, comms)
	for i := 0; i < len(flows); {
		j := i + 1
		for j < len(flows) && flows[j].Comm == flows[i].Comm {
			j++
		}
		routes := a[flows[i].Comm]
		if routes == nil {
			routes = make(map[spec.ConnKey]int, j-i)
			a[flows[i].Comm] = routes
		}
		for _, f := range flows[i:j] {
			if f.Path >= 0 {
				routes[f.Key] = f.Path
			}
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
	var w Workspace
	flows := w.Extract(cluster, comms)
	w.Assign(cluster, flows)
	return assignmentOf(flows, len(comms))
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
	var w Workspace
	flows := w.Extract(cluster, comms)
	// A stable partition, low-priority flows first: each group keeps
	// extraction order, and a communicator's flows stay contiguous.
	high := make([]Flow, 0, len(flows))
	low := flows[:0]
	for _, f := range flows {
		if prioApps[f.App] {
			high = append(high, f)
		} else {
			low = append(low, f)
		}
	}
	flows = append(low, high...)
	load := w.loads(cluster)
	// Low-priority first, restricted to non-reserved routes; then
	// high-priority with free choice (they see low-priority load and
	// will prefer the clean reserved paths).
	w.assignInto(flows[:len(low)], load, func(route int) bool { return !slices.Contains(reservedRoutes, route) })
	w.assignInto(flows[len(low):], load, nil)
	return assignmentOf(flows, len(comms))
}

// interleave returns the order flows are placed in, as indices into flows:
// round-robin across applications for fairness (the paper: "We round-robin
// between flows from different jobs"), applications in name order, each
// application's flows in extraction order.
//
// Only the distinct applications are sorted. A communicator's flows share
// an application and are contiguous, so the flows are scanned as runs of
// one application: each run is matched to its application by binary
// search, the flows are bucketed per application in one stable pass, and
// the buckets are read round by round, each round visiting, in name order,
// the applications that still have flows. Everything lives in the
// workspace's int32 buffer.
func (w *Workspace) interleave(flows []Flow) []int32 {
	n, runs := len(flows), 0
	for i := range flows {
		if i == 0 || flows[i].App != flows[i-1].App {
			runs++
		}
	}
	need := 2*n + 4*runs + 2
	if cap(w.buf) < need {
		w.buf = make([]int32, need)
	}
	buf := w.buf[:need]
	order, bucket, buf := buf[:n], buf[n:2*n], buf[2*n:]
	// starts[r] is where run r begins; starts[runs] is n.
	starts, buf := buf[:runs+1], buf[runs+1:]
	// apps holds one run start per distinct application, in name order.
	apps, buf := buf[:runs], buf[runs:]
	// runApp[r] is run r's position in apps.
	runApp, buf := buf[:runs], buf[runs:]
	// off[a]..off[a+1] is application a's bucket.
	off := buf[:runs+1]

	r := 0
	for i := range flows {
		if i == 0 || flows[i].App != flows[i-1].App {
			starts[r] = int32(i)
			r++
		}
	}
	starts[runs] = int32(n)
	copy(apps, starts[:runs])
	slices.SortFunc(apps, func(a, b int32) int { return cmp.Compare(flows[a].App, flows[b].App) })
	apps = slices.CompactFunc(apps, func(a, b int32) bool { return flows[a].App == flows[b].App })

	off = off[:len(apps)+1]
	clear(off)
	for r := range runs {
		a, _ := slices.BinarySearchFunc(apps, flows[starts[r]].App, func(x int32, app spec.AppID) int {
			return cmp.Compare(flows[x].App, app)
		})
		runApp[r] = int32(a)
		off[a+1] += starts[r+1] - starts[r]
	}
	for a := range len(apps) {
		off[a+1] += off[a]
	}
	// The runs in order fill each bucket in extraction order; apps, no
	// longer needed, holds each bucket's fill cursor.
	next := apps
	copy(next, off)
	for r := range runs {
		a := runApp[r]
		for i := starts[r]; i < starts[r+1]; i++ {
			bucket[next[a]] = i
			next[a]++
		}
	}
	// Round by round; starts, no longer needed, holds the applications
	// that still have flows.
	live := starts[:len(apps)]
	for a := range live {
		live[a] = int32(a)
	}
	k := 0
	for round := int32(0); len(live) > 0; round++ {
		kept := live[:0]
		for _, a := range live {
			order[k] = bucket[off[a]+round]
			k++
			if off[a]+round+1 < off[a+1] {
				kept = append(kept, a)
			}
		}
		live = kept
	}
	return order
}

// assignInto performs the best-fit step on flows, interleaved across
// applications: each flow goes to the allowed path whose most-loaded link
// has the least accumulated demand after adding the flow (minimal excess
// bandwidth demand), and its Path records the choice. load is indexed by
// LinkID.
func (w *Workspace) assignInto(flows []Flow, load []float64, allowed func(route int) bool) {
	for _, i := range w.interleave(flows) {
		f := &flows[i]
		if len(f.paths) == 0 {
			continue // Path stays -1
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
		f.Path = best
	}
}
