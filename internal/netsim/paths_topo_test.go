package netsim_test

// Path-enumeration tests on the fabrics internal/topo builds. topo imports
// netsim, so these live in the external test package and reach the
// reference enumerator through netsim.ReferencePaths.

import (
	"reflect"
	"testing"

	"mccs/internal/netsim"
	"mccs/internal/topo"
)

func largeClos(t testing.TB) *topo.Cluster {
	t.Helper()
	c, err := topo.BuildClos(topo.LargeScaleConfig())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// checkNICPairs compares the production enumerator with the reference,
// order included, on every stride-th ordered NIC pair (self pairs too).
func checkNICPairs(t *testing.T, c *topo.Cluster, stride int) {
	t.Helper()
	pairs := 0
	for i := 0; i < len(c.NICs)*len(c.NICs); i += stride {
		src, dst := c.NICs[i/len(c.NICs)].Node, c.NICs[i%len(c.NICs)].Node
		got, want := c.Net.PathsBetween(src, dst), netsim.ReferencePaths(c.Net, src, dst)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s -> %s:\n got  %v\n want %v", c.Net.NodeName(src), c.Net.NodeName(dst), got, want)
		}
		pairs++
	}
	t.Logf("%d NIC pairs", pairs)
}

func TestPathsMatchReferenceOnBuiltFabrics(t *testing.T) {
	t.Run("testbed", func(t *testing.T) {
		c, err := topo.BuildClos(topo.TestbedConfig())
		if err != nil {
			t.Fatal(err)
		}
		checkNICPairs(t, c, 1)
	})
	t.Run("large-scale", func(t *testing.T) {
		// 768² pairs at a stride coprime to 768: ~1 500 pairs that cover
		// same-host, same-rack and cross-rack sources and destinations.
		checkNICPairs(t, largeClos(t), 389)
	})
	t.Run("fat-tree", func(t *testing.T) {
		c, err := topo.BuildFatTree(topo.FatTreeConfig{
			Pods: 3, AggsPerPod: 2, CoresPerAgg: 2,
			LeavesPerPod: 2, HostsPerLeaf: 2, GPUsPerHost: 4, NICsPerHost: 2,
			NICBps: 100 * topo.Gbps, LeafAggBps: 200 * topo.Gbps, AggCoreBps: 400 * topo.Gbps,
		})
		if err != nil {
			t.Fatal(err)
		}
		checkNICPairs(t, c, 1)
	})
	t.Run("switch-ring", func(t *testing.T) {
		// An even ring has two equal-cost directions between opposite
		// switches; an odd one never does.
		for _, switches := range []int{4, 5} {
			c, err := topo.BuildSwitchRing(topo.RingConfig{
				Switches: switches, GPUsPerHost: 2, NICsPerHost: 2,
				NICBps: 50 * topo.Gbps, SwitchBps: 100 * topo.Gbps,
			})
			if err != nil {
				t.Fatal(err)
			}
			checkNICPairs(t, c, 1)
		}
	})
}

// A cold PathsBetween allocates its result — one backing array for the
// pair's paths, one slice of path headers — and nothing that scales with
// the fabric: the distance labels, the BFS queue and the DFS buffers are the
// Network's.
func TestColdPathsBetweenAllocatesOnlyItsResult(t *testing.T) {
	c := largeClos(t)
	c.PathsBetweenNICs(0, topo.NICID(len(c.NICs)-1)) // build the in-adjacency, size the scratch
	next := 0
	allocs := testing.AllocsPerRun(500, func() {
		// A new cross-rack pair every run (16 paths of 4 hops).
		next++
		a, b := topo.NICID(next%32), topo.NICID(32+next/32)
		if len(c.PathsBetweenNICs(a, b)) != 16 {
			t.Fatalf("NIC %d -> %d: not 16 paths", a, b)
		}
	})
	// AllocsPerRun reports the integer part of the mean: the cache map's
	// occasional growth stays below one allocation per insert.
	if allocs > 2 {
		t.Errorf("cold PathsBetween: %.0f allocs/query, want <= 2", allocs)
	}
}

// TestClosPathSearches pins how many searches a fixed set of cold NIC pairs
// costs on the 768-GPU Clos: the 256 pairs of the benchmark's
// netsim.probe.paths_cold_ms probe. A NIC has one uplink and one downlink,
// so a NIC pair is answered from its leaf pair's cached paths, and only a
// leaf pair not asked before is searched; a same-leaf pair needs no search
// at all. When every NIC pair ran its own search this read 256.
func TestClosPathSearches(t *testing.T) {
	c := largeClos(t)
	for i := 0; i < 256; i++ {
		a, b := topo.NICID(i*3%len(c.NICs)), topo.NICID((i*7+101)%len(c.NICs))
		if got, want := c.PathsBetweenNICs(a, b), netsim.ReferencePaths(c.Net, c.NICNode(a), c.NICNode(b)); !reflect.DeepEqual(got, want) {
			t.Fatalf("NIC %d -> %d:\n got  %v\n want %v", a, b, got, want)
		}
	}
	if got, want := netsim.Searches(c.Net), 70; got != want {
		t.Errorf("256 cold NIC pairs ran %d searches, want %d", got, want)
	}
}
