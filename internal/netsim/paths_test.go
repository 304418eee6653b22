package netsim

import (
	"math/rand"
	"reflect"
	"testing"
)

// checkAllPairs asserts that the production enumerator and the reference
// return the same path list — order included — for every ordered pair of
// nodes, src == dst and unreachable pairs included. Each pair is asked
// twice: the second answer comes from the cache.
func checkAllPairs(t *testing.T, n *Network) {
	t.Helper()
	for src := NodeID(0); int(src) < n.NumNodes(); src++ {
		for dst := NodeID(0); int(dst) < n.NumNodes(); dst++ {
			want := n.referenceShortestPaths(src, dst)
			for pass := 0; pass < 2; pass++ {
				if got := n.PathsBetween(src, dst); !reflect.DeepEqual(got, want) {
					t.Fatalf("%d nodes, %d links, %d -> %d (pass %d):\n got  %v\n want %v",
						n.NumNodes(), n.NumLinks(), src, dst, pass, got, want)
				}
			}
		}
	}
}

// edgeListNet builds a network from a byte string: two bytes per directed
// link, taken modulo the node count. Repeated pairs become parallel links,
// equal bytes self-loops, and nodes no byte names stay isolated.
func edgeListNet(nodes int, edges []byte) *Network {
	n := NewNetwork()
	for i := 0; i < nodes; i++ {
		n.AddNode("")
	}
	for i := 0; i+1 < len(edges); i += 2 {
		n.AddLink(NodeID(int(edges[i])%nodes), NodeID(int(edges[i+1])%nodes), 1)
	}
	return n
}

func TestPathsMatchReferenceOnRandomDigraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 200; trial++ {
		nodes := 1 + rng.Intn(12)
		edges := make([]byte, 2*rng.Intn(3*nodes+1))
		rng.Read(edges)
		checkAllPairs(t, edgeListNet(nodes, edges))
	}
}

// FuzzPathsBetween feeds random edge lists to both enumerators.
func FuzzPathsBetween(f *testing.F) {
	f.Add(uint8(1), []byte{})
	f.Add(uint8(4), []byte{0, 1, 0, 2, 1, 3, 2, 3})             // diamond
	f.Add(uint8(3), []byte{0, 1, 0, 1, 1, 2, 1, 1})             // parallel links, self-loop
	f.Add(uint8(6), []byte{0, 1, 1, 2, 2, 0, 3, 4})             // cycle, second component, isolated node
	f.Add(uint8(5), []byte{0, 1, 1, 4, 0, 2, 2, 3, 3, 4, 0, 4}) // unequal-length alternatives
	// Single-homed pairs (one link out of the source, one into the
	// destination), which PathsBetween answers through the pair between
	// them: the middle is unreachable, so 0 -> 3 has no paths (nil, not an
	// empty list) ...
	f.Add(uint8(4), []byte{0, 1, 2, 3})
	// ... the destination's one incoming link is a self-loop, and so is the
	// middle's one outgoing link: asking the middle pair by the same rule
	// would ask it again ...
	f.Add(uint8(3), []byte{0, 1, 1, 1, 2, 2})
	// ... and 0 <-> 1 and 2 <-> 3 are 2-cycles of single-homed nodes: the
	// middle of 0 -> 2 is 1 -> 3, whose middle is 0 -> 2 again.
	f.Add(uint8(4), []byte{0, 1, 1, 0, 2, 3, 3, 2})
	f.Fuzz(func(t *testing.T, nodes uint8, edges []byte) {
		if len(edges) > 128 {
			edges = edges[:128]
		}
		checkAllPairs(t, edgeListNet(1+int(nodes)%16, edges))
	})
}

// A link added after a query invalidates the cache and the derived
// in-adjacency: the next query must see it.
func TestAddLinkAfterQueryServesNewPaths(t *testing.T) {
	n, a, _, c := lineNet(1, 1)
	if got := n.PathsBetween(a, c); len(got) != 1 || len(got[0]) != 2 {
		t.Fatalf("line a->b->c: paths %v, want one 2-hop path", got)
	}
	shortcut := n.AddLink(a, c, 1)
	if got, want := n.PathsBetween(a, c), [][]LinkID{{shortcut}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after adding a->c: paths %v, want %v", got, want)
	}
	// A node and its links added after a query are reachable too.
	d := n.AddNode("d")
	if got := n.PathsBetween(a, d); got != nil {
		t.Fatalf("isolated node: paths %v, want none", got)
	}
	cd := n.AddLink(c, d, 1)
	if got, want := n.PathsBetween(a, d), [][]LinkID{{shortcut, cd}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("a->d: paths %v, want %v", got, want)
	}
	checkAllPairs(t, n)
}

// The paths of one pair share a backing array; an append to one must not
// run into the next.
func TestPathsAreCapacityLimited(t *testing.T) {
	n, src, dst := diamondNet(1)
	paths := n.PathsBetween(src, dst)
	second := append([]LinkID(nil), paths[1]...)
	_ = append(paths[0], 99)
	if !reflect.DeepEqual(paths[1], second) {
		t.Fatalf("append to path 0 changed path 1: %v, was %v", paths[1], second)
	}
}
