// Package netsim implements a deterministic flow-level network simulator.
//
// The simulator models a datacenter fabric as a directed graph of
// capacity-limited links. Traffic is represented as flows: a flow follows a
// fixed route (either pinned explicitly, as MCCS does with its route-ID /
// UDP-source-port policy-routing trick, or chosen by ECMP hashing, as plain
// RoCE traffic is) and transfers a byte count. Active flows share each link
// with progressive-filling max-min fairness, per flow (the model the
// paper's own simulator assumes, §6.5); what paces a ring step is the
// transport's per-connection FIFO, not the fabric.
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

// Link is one directed, capacity-limited edge. Its label is
// Network.LinkName.
type Link struct {
	ID       LinkID
	From, To NodeID
	// Capacity is in bytes per second.
	Capacity float64
}

// Network is the static fabric topology. Build it once, then share it
// between a Fabric (dynamic state) and routing/path queries.
type Network struct {
	nodeNames []string
	// links holds the links by value, in ID order: building a fabric
	// allocates nothing per link or node, and the solver reads capacities
	// from one array.
	links []Link
	// linkNames[l] is link l's label, formatted on first request (LinkName);
	// names never change, so adding links only leaves the table short.
	linkNames []string

	pathCache map[[2]NodeID][][]LinkID
	// pathLinks and pathLists are the chunks the path lists PathsBetween
	// composes or finds are carved from (newPaths): the paths' links and
	// the lists of them. A chunk is only ever appended to, never rewritten
	// or reused, so every path handed out stays valid and unchanged.
	pathLinks []LinkID
	pathLists [][]LinkID
	// searches counts the breadth-first searches computeShortestPaths has
	// run (for tests: a path query that reuses cached paths runs none).
	searches int

	// Path-query state derived from the links, built on the first query
	// and dropped by AddLink: outLink[outOff[v]:outOff[v+1]] are v's
	// outgoing links and inLink[inOff[v]:inOff[v+1]] its incoming ones
	// (CSR, each in link-ID order), distTo[v] is v's hop distance to the
	// current query's destination (-1 = not labelled; every label is reset
	// before the query returns), and queue/cur/flat are the BFS queue, the
	// DFS's path prefix and its output, reused across queries.
	outOff, inOff, distTo []int32
	outLink, inLink       []LinkID
	cur, flat             []LinkID
	queue                 []NodeID
}

// NewNetwork returns an empty topology.
func NewNetwork() *Network {
	return &Network{pathCache: make(map[[2]NodeID][][]LinkID)}
}

// Grow makes room for nodes more nodes and links more links, so that a
// builder that knows its fabric's size adds them without regrowing the
// tables.
func (n *Network) Grow(nodes, links int) {
	// Not slices.Grow: under the race detector its append of a made slice
	// is a second allocation.
	n.nodeNames = append(make([]string, 0, len(n.nodeNames)+nodes), n.nodeNames...)
	n.links = append(make([]Link, 0, len(n.links)+links), n.links...)
}

// AddNode adds a vertex and returns its ID.
func (n *Network) AddNode(name string) NodeID {
	n.nodeNames = append(n.nodeNames, name)
	n.inOff = nil
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
	n.links = append(n.links, Link{ID: id, From: from, To: to, Capacity: capacity})
	// Invalidate everything derived from the link set. BuildClos calls
	// this thousands of times before the first query: nothing to clear.
	if len(n.pathCache) > 0 {
		clear(n.pathCache)
	}
	n.inOff = nil
	return id
}

// AddDuplex adds a full-duplex link: two directed links, one per direction.
// It returns (forward, reverse).
func (n *Network) AddDuplex(a, b NodeID, capacity float64) (LinkID, LinkID) {
	return n.AddLink(a, b, capacity), n.AddLink(b, a, capacity)
}

// Link returns the link with the given ID. The pointer is into the
// Network's link table and stays valid until the next AddLink.
func (n *Network) Link(id LinkID) *Link { return &n.links[id] }

// LinkName returns link id's human-readable label, "from->to", for errors,
// traces and telemetry. Labels are formatted the first time any is asked
// for, and then kept: a fabric nobody observes never formats one.
func (n *Network) LinkName(id LinkID) string {
	for l := len(n.linkNames); l < len(n.links); l++ {
		n.linkNames = append(n.linkNames, n.NodeName(n.links[l].From)+"->"+n.NodeName(n.links[l].To))
	}
	return n.linkNames[id]
}

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
		l := &n.links[id]
		if l.From != at {
			return fmt.Errorf("netsim: route hop %d (%s) does not start at %s", i, n.LinkName(id), n.NodeName(at))
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
//
// The returned slices are shared: the cache hands the same ones to every
// caller, policy and the fabric keep references to them, and the paths of
// many pairs sit in one backing array. Treat them as read-only.
func (n *Network) PathsBetween(src, dst NodeID) [][]LinkID {
	key := [2]NodeID{src, dst}
	if p, ok := n.pathCache[key]; ok {
		return p
	}
	if n.inOff == nil {
		n.buildAdjacency()
	}
	var paths [][]LinkID
	if up, down, ok := n.singleHomed(src, dst); ok {
		paths = n.throughSwitches(up, down)
	} else {
		paths = n.computeShortestPaths(src, dst)
	}
	n.pathCache[key] = paths
	return paths
}

// singleHomed reports whether src has exactly one outgoing link (up) and
// dst exactly one incoming link (down), src != dst: a NIC and its one
// uplink, a NIC and its one downlink, on every fabric internal/topo
// builds.
func (n *Network) singleHomed(src, dst NodeID) (up, down LinkID, ok bool) {
	if src == dst || n.outOff[src+1]-n.outOff[src] != 1 || n.inOff[dst+1]-n.inOff[dst] != 1 {
		return 0, 0, false
	}
	return n.outLink[n.outOff[src]], n.inLink[n.inOff[dst]], true
}

// throughSwitches answers a single-homed pair (singleHomed) from the
// cached paths between the far end of its uplink and the near end of its
// downlink — on a Clos, one search per leaf pair instead of one per NIC
// pair. Every path from src leaves over up and every path into dst
// arrives over down, and a shortest path between them never revisits
// either end, so the shortest src→dst paths are exactly up + (each
// shortest path from up.To to down.From) + down, and in the same order:
// the paths share their first and last link, so the reference enumerator
// orders them by their middle, as it orders the middles themselves. The
// middle pair is enumerated by search, never by this rule again, so a
// chain or cycle of single-homed nodes cannot recurse. An unreachable
// middle (including a self-loop uplink or downlink) leaves dst
// unreachable: nil.
func (n *Network) throughSwitches(up, down LinkID) [][]LinkID {
	if up == down {
		return [][]LinkID{{up}} // src's one link is dst's one link
	}
	key := [2]NodeID{n.links[up].To, n.links[down].From}
	mid, ok := n.pathCache[key]
	if !ok {
		mid = n.computeShortestPaths(key[0], key[1])
		n.pathCache[key] = mid
	}
	if len(mid) == 0 {
		return nil
	}
	paths := n.newPaths(len(mid), len(mid[0])+2)
	for i, p := range mid {
		path := paths[i]
		path[0], path[len(path)-1] = up, down
		copy(path[1:], p)
	}
	return paths
}

// Path chunks grow by doubling from the first list's size up to these
// many elements (32 KiB of links, 24 KiB of list headers), so a fabric
// with a few paths keeps a few small chunks and a Clos's thousands of NIC
// pairs share a few dozen.
const (
	maxLinkChunk = 4096
	maxListChunk = 1024
)

// newPaths returns a list of count paths of hops links each, carved from
// the path chunks. Each path is capped at its length, so an append to one
// copies it instead of running into the next.
func (n *Network) newPaths(count, hops int) [][]LinkID {
	links := carve(&n.pathLinks, count*hops, maxLinkChunk)
	paths := carve(&n.pathLists, count, maxListChunk)
	for i := range paths {
		paths[i] = links[i*hops : (i+1)*hops : (i+1)*hops]
	}
	return paths
}

// carve returns the next k elements of *chunk, capped at k, starting a new
// chunk — twice the old one's capacity, at most maxChunk elements unless k
// needs more — when what is left is too short. The rest of the old chunk
// is never used.
func carve[T any](chunk *[]T, k, maxChunk int) []T {
	if cap(*chunk)-len(*chunk) < k {
		*chunk = make([]T, 0, max(k, min(2*cap(*chunk), maxChunk)))
	}
	at := len(*chunk)
	*chunk = (*chunk)[:at+k]
	return (*chunk)[at : at+k : at+k]
}

// isCachedPath reports whether route is one of the paths PathsBetween(src,
// dst) handed out — the very slice, not an equal one — which nothing ever
// changes, so a holder may keep it without a copy.
func (n *Network) isCachedPath(src, dst NodeID, route []LinkID) bool {
	for _, p := range n.pathCache[[2]NodeID{src, dst}] {
		if len(p) == len(route) && len(p) > 0 && &p[0] == &route[0] {
			return true
		}
	}
	return false
}

// computeShortestPaths labels nodes with their distance to dst by a BFS
// over incoming links that stops as soon as src is labelled — BFS labels in
// distance order, so every node nearer to dst than src has its label by
// then — and then walks from src along links that lose exactly one hop.
// Every link the walk takes lies on a shortest path, and it tries u's
// outgoing links in ID order, so the paths come out in the order of a
// forward level-graph DFS (path order is an ECMP input and the meaning of a
// pinned route index). The caller has built the adjacency.
func (n *Network) computeShortestPaths(src, dst NodeID) [][]LinkID {
	if src == dst {
		return [][]LinkID{{}}
	}
	n.searches++
	n.distTo[dst] = 0
	n.queue = append(n.queue[:0], dst)
	for head := 0; head < len(n.queue) && n.distTo[src] < 0; head++ {
		v := n.queue[head]
		for _, lid := range n.inLink[n.inOff[v]:n.inOff[v+1]] {
			if u := n.links[lid].From; n.distTo[u] < 0 {
				n.distTo[u] = n.distTo[v] + 1
				n.queue = append(n.queue, u)
			}
		}
	}
	var paths [][]LinkID
	if hops := int(n.distTo[src]); hops > 0 {
		n.cur, n.flat = n.cur[:0], n.flat[:0]
		n.descend(src)
		paths = n.newPaths(len(n.flat)/hops, hops)
		for i, p := range paths {
			copy(p, n.flat[i*hops:])
		}
	}
	for _, v := range n.queue {
		n.distTo[v] = -1
	}
	return paths
}

// descend appends to n.flat every path from u to the node labelled 0 that
// loses one hop per link, each prefixed by n.cur.
func (n *Network) descend(u NodeID) {
	if n.distTo[u] == 0 {
		n.flat = append(n.flat, n.cur...)
		return
	}
	for _, lid := range n.outLink[n.outOff[u]:n.outOff[u+1]] {
		if v := n.links[lid].To; n.distTo[v] == n.distTo[u]-1 {
			n.cur = append(n.cur, lid)
			n.descend(v)
			n.cur = n.cur[:len(n.cur)-1]
		}
	}
}

// buildAdjacency derives the CSR out- and in-adjacency from the links and
// sizes the distance labels to the node set.
func (n *Network) buildAdjacency() {
	nodes := len(n.nodeNames)
	n.outOff, n.outLink = csr(n.links, nodes, func(l *Link) NodeID { return l.From })
	n.inOff, n.inLink = csr(n.links, nodes, func(l *Link) NodeID { return l.To })
	n.distTo = make([]int32, nodes)
	for v := range n.distTo {
		n.distTo[v] = -1
	}
}

// csr groups the link IDs by the node end(l) names, keeping ID order within
// a node: the IDs of node v's group are ids[off[v]:off[v+1]].
func csr(links []Link, nodes int, end func(*Link) NodeID) (off []int32, ids []LinkID) {
	off = make([]int32, nodes+1)
	for i := range links {
		off[end(&links[i])+1]++
	}
	for v := 0; v < nodes; v++ {
		off[v+1] += off[v]
	}
	ids = make([]LinkID, len(links))
	next := append([]int32(nil), off[:nodes]...)
	for i := range links {
		v := end(&links[i])
		ids[next[v]] = LinkID(i)
		next[v]++
	}
	return off, ids
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
