// Package netsim implements a deterministic flow-level network simulator.
//
// The simulator models a datacenter fabric as a directed graph of
// capacity-limited links. Traffic is represented as flows: a flow follows a
// fixed route (either pinned explicitly, as MCCS does with its route-ID /
// UDP-source-port policy-routing trick, or chosen by ECMP hashing, as plain
// RoCE traffic is) and transfers a byte count. Active flows share each link
// with progressive-filling max-min fairness; flows may additionally be tied
// into a Group whose members all advance at the group's bottleneck rate,
// which models the lock-step behaviour of a ring-collective step.
//
// The fabric is event driven on top of the sim scheduler: rates are
// recomputed only when the flow set changes — and at most once per
// virtual instant, because same-instant mutations are coalesced into one
// allocation flushed before the clock advances (or before any rate is
// read) — and a single timer tracks the next flow completion.
//
// Two things keep the fabric off the per-message path of a collective,
// neither visible to the simulation. An allocation for a small flow set is
// memoised by its exact inputs (memo.go): pinned routes and sliced ring
// steps make a testbed-scale fabric solve the same few flow sets over and
// over, and a repeat gets back the very floats the solver produced the
// first time. And a caller that wants no handle starts its transfer with
// Fabric.Send instead of StartFlow; the Flow behind it is the fabric's
// own and is recycled when the transfer completes.
package netsim

import (
	"fmt"
)

// NodeID identifies a vertex in the fabric graph (a switch or a NIC).
type NodeID int

// LinkID identifies one directed link.
type LinkID int

// Link is one directed, capacity-limited edge.
type Link struct {
	ID       LinkID
	From, To NodeID
	// Capacity is in bytes per second.
	Capacity float64
	// Name is a human-readable label used in errors and traces.
	Name string
}

// Network is the static fabric topology. Build it once, then share it
// between a Fabric (dynamic state) and routing/path queries.
type Network struct {
	nodeNames []string
	links     []*Link
	out       [][]LinkID // adjacency: outgoing links per node

	pathCache map[[2]NodeID][][]LinkID
}

// NewNetwork returns an empty topology.
func NewNetwork() *Network {
	return &Network{pathCache: make(map[[2]NodeID][][]LinkID)}
}

// AddNode adds a vertex and returns its ID.
func (n *Network) AddNode(name string) NodeID {
	n.nodeNames = append(n.nodeNames, name)
	n.out = append(n.out, nil)
	return NodeID(len(n.nodeNames) - 1)
}

// NodeName returns the debug name of a node.
func (n *Network) NodeName(id NodeID) string {
	if int(id) < 0 || int(id) >= len(n.nodeNames) {
		return fmt.Sprintf("node#%d", id)
	}
	return n.nodeNames[id]
}

// NumNodes returns the number of vertices.
func (n *Network) NumNodes() int { return len(n.nodeNames) }

// NumLinks returns the number of directed links.
func (n *Network) NumLinks() int { return len(n.links) }

// AddLink adds one directed link with the given capacity in bytes/second.
func (n *Network) AddLink(from, to NodeID, capacity float64) LinkID {
	id := LinkID(len(n.links))
	l := &Link{
		ID: id, From: from, To: to, Capacity: capacity,
		Name: fmt.Sprintf("%s->%s", n.NodeName(from), n.NodeName(to)),
	}
	n.links = append(n.links, l)
	n.out[from] = append(n.out[from], id)
	n.pathCache = make(map[[2]NodeID][][]LinkID) // invalidate
	return id
}

// AddDuplex adds a full-duplex link: two directed links, one per direction.
// It returns (forward, reverse).
func (n *Network) AddDuplex(a, b NodeID, capacity float64) (LinkID, LinkID) {
	return n.AddLink(a, b, capacity), n.AddLink(b, a, capacity)
}

// Link returns the link with the given ID.
func (n *Network) Link(id LinkID) *Link { return n.links[id] }

// ValidateRoute checks that route is a connected path from src to dst.
func (n *Network) ValidateRoute(src, dst NodeID, route []LinkID) error {
	if len(route) == 0 {
		if src == dst {
			return nil
		}
		return fmt.Errorf("netsim: empty route from %s to %s", n.NodeName(src), n.NodeName(dst))
	}
	at := src
	for i, id := range route {
		if int(id) < 0 || int(id) >= len(n.links) {
			return fmt.Errorf("netsim: route hop %d: unknown link %d", i, id)
		}
		l := n.links[id]
		if l.From != at {
			return fmt.Errorf("netsim: route hop %d (%s) does not start at %s", i, l.Name, n.NodeName(at))
		}
		at = l.To
	}
	if at != dst {
		return fmt.Errorf("netsim: route ends at %s, want %s", n.NodeName(at), n.NodeName(dst))
	}
	return nil
}

// PathsBetween returns every shortest (minimum-hop) path from src to dst,
// in a deterministic order. Results are cached. These are the "equal-cost"
// paths an ECMP hash selects among, and the route choices MCCS pins flows
// to.
func (n *Network) PathsBetween(src, dst NodeID) [][]LinkID {
	key := [2]NodeID{src, dst}
	if p, ok := n.pathCache[key]; ok {
		return p
	}
	paths := n.computeShortestPaths(src, dst)
	n.pathCache[key] = paths
	return paths
}

func (n *Network) computeShortestPaths(src, dst NodeID) [][]LinkID {
	if src == dst {
		return [][]LinkID{{}}
	}
	// BFS to establish distance-from-src per node.
	const inf = int(^uint(0) >> 1)
	dist := make([]int, len(n.nodeNames))
	for i := range dist {
		dist[i] = inf
	}
	dist[src] = 0
	queue := []NodeID{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, lid := range n.out[u] {
			v := n.links[lid].To
			if dist[v] == inf {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	if dist[dst] == inf {
		return nil
	}
	// DFS over the level graph enumerating all shortest paths.
	var paths [][]LinkID
	var cur []LinkID
	var dfs func(u NodeID)
	dfs = func(u NodeID) {
		if u == dst {
			paths = append(paths, append([]LinkID(nil), cur...))
			return
		}
		for _, lid := range n.out[u] {
			v := n.links[lid].To
			if dist[v] == dist[u]+1 && dist[v] <= dist[dst] {
				cur = append(cur, lid)
				dfs(v)
				cur = cur[:len(cur)-1]
			}
		}
	}
	dfs(src)
	return paths
}

// FNV-1a constants, for the inlined ECMP hash below.
const (
	fnv64Offset uint64 = 14695981039346656037
	fnv64Prime  uint64 = 1099511628211
)

// ECMPIndex deterministically hashes a flow identity onto one of nPaths
// equal-cost paths, mimicking switch ECMP hashing of the 5-tuple. label
// stands in for the transport ports: distinct connections between the same
// endpoints get distinct labels.
//
// The FNV-1a hash is inlined rather than built on hash/fnv: this runs on
// every unpinned flow start and fnv.New64a() allocates. The digest is
// bit-identical to hashing the three values' little-endian bytes with
// hash/fnv (asserted by TestECMPIndexMatchesFNV), so route choices are
// stable across the rewrite.
func ECMPIndex(src, dst NodeID, label uint64, nPaths int) int {
	if nPaths <= 1 {
		return 0
	}
	h := fnv64Offset
	for _, v := range [3]uint64{uint64(src), uint64(dst), label} {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= fnv64Prime
			v >>= 8
		}
	}
	return int(h % uint64(nPaths))
}
