package topo

import (
	"testing"
	"testing/quick"

	"mccs/internal/allocpin"
)

func TestTestbedShape(t *testing.T) {
	c, err := BuildClos(TestbedConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(c.Hosts); got != 4 {
		t.Errorf("hosts = %d, want 4", got)
	}
	if got := len(c.GPUs); got != 8 {
		t.Errorf("GPUs = %d, want 8", got)
	}
	if got := len(c.NICs); got != 8 {
		t.Errorf("NICs = %d, want 8", got)
	}
	if got := c.NumRacks(); got != 2 {
		t.Errorf("racks = %d, want 2", got)
	}
	if got := oversubscription(TestbedConfig()); got != 2 {
		t.Errorf("oversubscription = %g, want 2", got)
	}
	// Each GPU has its own NIC in the testbed.
	seen := map[NICID]bool{}
	for _, g := range c.GPUs {
		if seen[g.NIC] {
			t.Errorf("NIC %d shared by two GPUs; testbed is 1:1", g.NIC)
		}
		seen[g.NIC] = true
	}
}

func TestLargeScaleShape(t *testing.T) {
	c, err := BuildClos(LargeScaleConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(c.GPUs); got != 768 {
		t.Errorf("GPUs = %d, want 768", got)
	}
	if got := len(c.Hosts); got != 96 {
		t.Errorf("hosts = %d, want 96", got)
	}
	if got := c.NumRacks(); got != 24 {
		t.Errorf("racks = %d, want 24", got)
	}
	if got := len(c.SpineNodes); got != 16 {
		t.Errorf("spines = %d, want 16", got)
	}
	if got := oversubscription(LargeScaleConfig()); got != 2 {
		t.Errorf("oversubscription = %g, want 2", got)
	}
}

// oversubscription is a rack's downlink over its uplink capacity.
func oversubscription(cfg ClosConfig) float64 {
	down := float64(cfg.HostsPerLeaf*cfg.NICsPerHost) * cfg.NICBps
	up := float64(cfg.Spines) * cfg.LeafSpineBps
	return down / up
}

func TestClosPathCounts(t *testing.T) {
	c, err := BuildClos(TestbedConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Same-rack NICs: a unique 2-hop path through the shared leaf.
	h0, h1 := c.Hosts[0], c.Hosts[1]
	if c.RackOf(h0.ID) != c.RackOf(h1.ID) {
		t.Fatal("hosts 0,1 should share rack 0")
	}
	same := c.PathsBetweenNICs(h0.NICs[0], h1.NICs[0])
	if len(same) != 1 || len(same[0]) != 2 {
		t.Errorf("same-rack paths = %d x %d hops, want 1 x 2", len(same), len(same[0]))
	}
	// Cross-rack NICs: one 4-hop path per spine.
	h2 := c.Hosts[2]
	if c.RackOf(h0.ID) == c.RackOf(h2.ID) {
		t.Fatal("hosts 0,2 should be in different racks")
	}
	cross := c.PathsBetweenNICs(h0.NICs[0], h2.NICs[0])
	if len(cross) != 2 {
		t.Errorf("cross-rack paths = %d, want 2 (one per spine)", len(cross))
	}
	for _, p := range cross {
		if len(p) != 4 {
			t.Errorf("cross-rack path has %d hops, want 4", len(p))
		}
	}
}

func TestLargeScaleCrossRackPathsEqualSpines(t *testing.T) {
	c, err := BuildClos(LargeScaleConfig())
	if err != nil {
		t.Fatal(err)
	}
	a := c.Hosts[0].NICs[0]
	b := c.Hosts[len(c.Hosts)-1].NICs[0]
	paths := c.PathsBetweenNICs(a, b)
	if len(paths) != 16 {
		t.Errorf("cross-rack paths = %d, want 16", len(paths))
	}
}

func TestGPUNICAffinityStriping(t *testing.T) {
	cfg := TestbedConfig()
	cfg.GPUsPerHost = 4
	cfg.NICsPerHost = 2
	c, err := BuildClos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := c.Hosts[0]
	// GPUs 0,1 -> NIC 0; GPUs 2,3 -> NIC 1.
	if c.GPUs[h.GPUs[0]].NIC != h.NICs[0] || c.GPUs[h.GPUs[1]].NIC != h.NICs[0] {
		t.Error("GPUs 0,1 should use NIC 0")
	}
	if c.GPUs[h.GPUs[2]].NIC != h.NICs[1] || c.GPUs[h.GPUs[3]].NIC != h.NICs[1] {
		t.Error("GPUs 2,3 should use NIC 1")
	}
}

func TestSwitchRing(t *testing.T) {
	c, err := BuildSwitchRing(RingConfig{
		Switches: 4, GPUsPerHost: 2, NICsPerHost: 2,
		NICBps: 50 * Gbps, SwitchBps: 100 * Gbps,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Hosts) != 4 || len(c.GPUs) != 8 {
		t.Fatalf("hosts=%d gpus=%d, want 4/8", len(c.Hosts), len(c.GPUs))
	}
	// Adjacent switches: single 3-hop NIC path (nic->sw, sw->sw, sw->nic).
	adj := c.PathsBetweenNICs(c.Hosts[0].NICs[0], c.Hosts[1].NICs[0])
	if len(adj) != 1 || len(adj[0]) != 3 {
		t.Errorf("adjacent paths = %dx%d, want 1x3", len(adj), len(adj[0]))
	}
	// Opposite switches: two equal-cost 4-hop paths (clockwise and
	// counterclockwise).
	opp := c.PathsBetweenNICs(c.Hosts[0].NICs[0], c.Hosts[2].NICs[0])
	if len(opp) != 2 {
		t.Errorf("opposite paths = %d, want 2", len(opp))
	}
	if _, err := c.RingLinkBetween(0, 1); err != nil {
		t.Errorf("RingLinkBetween(0,1): %v", err)
	}
	if _, err := c.RingLinkBetween(0, 2); err == nil {
		t.Error("RingLinkBetween(0,2) should fail: not adjacent")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []ClosConfig{
		{},
		{Spines: 1, Leaves: 1, HostsPerLeaf: 1, GPUsPerHost: 3, NICsPerHost: 2, NICBps: 1, LeafSpineBps: 1},
		{Spines: 1, Leaves: 1, HostsPerLeaf: 1, GPUsPerHost: 2, NICsPerHost: 2, NICBps: 0, LeafSpineBps: 1},
	}
	for i, cfg := range bad {
		if _, err := BuildClos(cfg); err == nil {
			t.Errorf("config %d accepted, want error", i)
		}
	}
	if _, err := BuildSwitchRing(RingConfig{Switches: 2, GPUsPerHost: 1, NICsPerHost: 1, NICBps: 1, SwitchBps: 1}); err == nil {
		t.Error("2-switch ring accepted")
	}
}

// Property: for any modest Clos shape, inventory sizes and locality
// relations are mutually consistent.
func TestQuickClosConsistency(t *testing.T) {
	f := func(sp, lv, hp, gp uint8) bool {
		cfg := ClosConfig{
			Spines:       int(sp%4) + 1,
			Leaves:       int(lv%4) + 1,
			HostsPerLeaf: int(hp%3) + 1,
			GPUsPerHost:  (int(gp%2) + 1) * 2, // 2 or 4
			NICsPerHost:  2,
			NICBps:       50 * Gbps,
			LeafSpineBps: 50 * Gbps,
		}
		c, err := BuildClos(cfg)
		if err != nil {
			return false
		}
		if len(c.Hosts) != cfg.Leaves*cfg.HostsPerLeaf {
			return false
		}
		if len(c.GPUs) != len(c.Hosts)*cfg.GPUsPerHost {
			return false
		}
		for i, g := range c.GPUs {
			if c.NICs[g.NIC].Host != g.Host {
				return false // GPU affinity NIC must be on its own host
			}
			if c.HostOfGPU(GPUID(i)) != g.Host {
				return false
			}
		}
		for _, h := range c.Hosts {
			if int(h.Rack) >= c.NumRacks() {
				return false
			}
			for _, n := range h.NICs {
				if c.NICs[n].Host != h.ID {
					return false
				}
			}
		}
		// Cross-rack path count equals spine count when racks > 1.
		if cfg.Leaves > 1 {
			a := c.Hosts[0].NICs[0]
			b := c.Hosts[len(c.Hosts)-1].NICs[0]
			if c.RackOf(c.NICs[a].Host) != c.RackOf(c.NICs[b].Host) {
				if len(c.PathsBetweenNICs(a, b)) != cfg.Spines {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestBuildClosAllocations pins what building the 768-GPU Clos costs. Links
// live by value in the Network's table, their labels are formatted on
// demand, the adjacency is derived on the first path query, every table is
// sized up front, a host's NIC and GPU lists are windows of the cluster's ID
// tables and its NICs' node names are substrings of one string, so nothing
// is allocated per link, per NIC or per GPU: what is left is a name per
// switch (40) and per host (96), one NIC-name string per host (96) and the
// tables themselves.
// When each link was its own *Link with an fmt-formatted name and each node
// grew its own out-link list, this read 12 769; with a name per NIC node and
// a NIC and GPU list per host, 1 115.
func TestBuildClosAllocations(t *testing.T) {
	got := allocpin.Min(5, func() {
		if _, err := BuildClos(LargeScaleConfig()); err != nil {
			t.Fatal(err)
		}
	})
	if want := 253.0; got != want {
		t.Errorf("BuildClos(LargeScaleConfig()) allocates %v times, want %v", got, want)
	}
}
