package netsim

// referenceShortestPaths is Network.computeShortestPaths as it stood before
// PR 16, kept verbatim as the differential-test reference (the oracle.go
// pattern): a whole-graph forward BFS, then a DFS over the level graph that
// also walks the dead ends. The production enumerator must return the same
// paths in the same order.
func (n *Network) referenceShortestPaths(src, dst NodeID) [][]LinkID {
	if src == dst {
		return [][]LinkID{{}}
	}
	// The out-links per node, in ID order (the Network keeps only a link
	// table and derives its own adjacency).
	out := make([][]LinkID, len(n.nodeNames))
	for i, l := range n.links {
		out[l.From] = append(out[l.From], LinkID(i))
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
		for _, lid := range out[u] {
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
		for _, lid := range out[u] {
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

// ReferencePaths exposes the reference enumerator to the external tests
// that build their networks with internal/topo (which imports this
// package).
func ReferencePaths(n *Network, src, dst NodeID) [][]LinkID {
	return n.referenceShortestPaths(src, dst)
}

// Searches exposes the number of breadth-first searches n has run to the
// external tests.
func Searches(n *Network) int { return n.searches }
