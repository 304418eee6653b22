package topo

import "testing"

func smallFatTree(t *testing.T) *Cluster {
	t.Helper()
	c, err := BuildFatTree(FatTreeConfig{
		Pods: 3, AggsPerPod: 2, CoresPerAgg: 2,
		LeavesPerPod: 2, HostsPerLeaf: 2, GPUsPerHost: 4, NICsPerHost: 2,
		NICBps: 100 * Gbps, LeafAggBps: 200 * Gbps, AggCoreBps: 400 * Gbps,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestFatTreeShape(t *testing.T) {
	c := smallFatTree(t)
	if got := c.NumRacks(); got != 6 {
		t.Errorf("racks = %d, want 6", got)
	}
	if got := len(c.Hosts); got != 12 {
		t.Errorf("hosts = %d, want 12", got)
	}
	if got := len(c.GPUs); got != 48 {
		t.Errorf("GPUs = %d, want 48", got)
	}
	// Pods assigned pod-major by rack ID.
	for r := 0; r < c.NumRacks(); r++ {
		if got := c.PodOf(RackID(r)); got != r/2 {
			t.Errorf("PodOf(rack %d) = %d, want %d", r, got, r/2)
		}
	}
	podOfHost := func(h HostID) int { return c.PodOf(c.RackOf(h)) }
	if podOfHost(0) != 0 || podOfHost(2) != 0 {
		t.Error("hosts 0 and 2 should share pod 0")
	}
	if podOfHost(4) == 0 {
		t.Error("hosts 0 and 4 should be in different pods")
	}
}

func TestFatTreePathDiversity(t *testing.T) {
	c := smallFatTree(t)
	// Same rack: one 2-hop path.
	same := c.PathsBetweenNICs(c.Hosts[0].NICs[0], c.Hosts[1].NICs[0])
	if len(same) != 1 || len(same[0]) != 2 {
		t.Errorf("same-rack paths = %dx%d, want 1x2", len(same), len(same[0]))
	}
	// Same pod, different racks: one 4-hop path per aggregation switch.
	intra := c.PathsBetweenNICs(c.Hosts[0].NICs[0], c.Hosts[2].NICs[0])
	if len(intra) != 2 {
		t.Errorf("intra-pod cross-rack paths = %d, want 2 (aggs)", len(intra))
	}
	for _, p := range intra {
		if len(p) != 4 {
			t.Errorf("intra-pod path hops = %d, want 4", len(p))
		}
	}
	// Cross-pod: AggsPerPod x CoresPerAgg 6-hop paths.
	cross := c.PathsBetweenNICs(c.Hosts[0].NICs[0], c.Hosts[4].NICs[0])
	if len(cross) != 4 {
		t.Errorf("cross-pod paths = %d, want 4", len(cross))
	}
	for _, p := range cross {
		if len(p) != 6 {
			t.Errorf("cross-pod path hops = %d, want 6", len(p))
		}
	}
}

func TestFatTreeValidation(t *testing.T) {
	bad := FatTreeConfig{Pods: 0}
	if _, err := BuildFatTree(bad); err == nil {
		t.Error("zero pods accepted")
	}
	bad2 := FatTreeConfig{
		Pods: 1, AggsPerPod: 1, CoresPerAgg: 1, LeavesPerPod: 1, HostsPerLeaf: 1,
		GPUsPerHost: 3, NICsPerHost: 2, NICBps: 1, LeafAggBps: 1, AggCoreBps: 1,
	}
	if _, err := BuildFatTree(bad2); err == nil {
		t.Error("non-divisible GPU/NIC accepted")
	}
}

func TestTwoTierPodDefaults(t *testing.T) {
	c, err := BuildClos(TestbedConfig())
	if err != nil {
		t.Fatal(err)
	}
	if c.PodOf(1) != 0 {
		t.Error("two-tier rack should default to pod 0")
	}
	if c.PodOf(c.RackOf(3)) != 0 {
		t.Error("two-tier hosts should all share pod 0")
	}
}
