package policy

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"mccs/internal/spec"
	"mccs/internal/topo"
)

// referenceLocalityRing is LocalityRing as four maps (rack -> hosts in
// first-seen order, host -> ranks) sorted level by level: the version the
// one-sort LocalityRing replaced, kept as its differential oracle.
func referenceLocalityRing(cluster *topo.Cluster, ranks []spec.RankInfo) []int {
	byHost := make(map[topo.HostID][]int)
	hostOrder := make(map[topo.RackID][]topo.HostID)
	var rackOrder []topo.RackID
	seenRack := make(map[topo.RackID]bool)
	seenHost := make(map[topo.HostID]bool)
	for _, ri := range ranks {
		rack := cluster.RackOf(ri.Host)
		if !seenRack[rack] {
			seenRack[rack] = true
			rackOrder = append(rackOrder, rack)
		}
		if !seenHost[ri.Host] {
			seenHost[ri.Host] = true
			hostOrder[rack] = append(hostOrder[rack], ri.Host)
		}
		byHost[ri.Host] = append(byHost[ri.Host], ri.Rank)
	}
	sort.Slice(rackOrder, func(i, j int) bool { return rackOrder[i] < rackOrder[j] })
	order := make([]int, 0, len(ranks))
	for _, rack := range rackOrder {
		hosts := hostOrder[rack]
		sort.Slice(hosts, func(i, j int) bool { return hosts[i] < hosts[j] })
		for _, h := range hosts {
			rs := byHost[h]
			sort.Ints(rs)
			order = append(order, rs...)
		}
	}
	return order
}

// referenceInterleave is interleaveByApp as a map of per-app index lists
// walked round by round: the version the two-sort interleaveByApp replaced.
func referenceInterleave(flows []Flow) []int {
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

// oracleClusters are the fabrics the differential tests draw rank sets on:
// the §6.5 Clos, the testbed and TestLocalityRingPodAware's fat tree, whose
// rack IDs run pod-major.
func oracleClusters(tb testing.TB) []*topo.Cluster {
	tb.Helper()
	large, err := topo.BuildClos(topo.LargeScaleConfig())
	if err != nil {
		tb.Fatal(err)
	}
	testbed, err := topo.BuildClos(topo.TestbedConfig())
	if err != nil {
		tb.Fatal(err)
	}
	fat, err := topo.BuildFatTree(topo.FatTreeConfig{
		Pods: 3, AggsPerPod: 2, CoresPerAgg: 2,
		LeavesPerPod: 2, HostsPerLeaf: 2, GPUsPerHost: 4, NICsPerHost: 2,
		NICBps: 100 * topo.Gbps, LeafAggBps: 200 * topo.Gbps, AggCoreBps: 400 * topo.Gbps,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return []*topo.Cluster{large, testbed, fat}
}

// checkLocalityRing fails t unless LocalityRing and its reference agree on
// ranks.
func checkLocalityRing(t *testing.T, c *topo.Cluster, ranks []spec.RankInfo) {
	t.Helper()
	want := referenceLocalityRing(c, ranks)
	if got := LocalityRing(c, ranks); !slices.Equal(got, want) {
		t.Fatalf("LocalityRing on %d ranks %v:\n got  %v\n want %v", len(ranks), ranks, got, want)
	}
}

// TestLocalityRingMatchesReference compares LocalityRing with the map-based
// version on random GPU subsets, ranked in random order, of each oracle
// cluster.
func TestLocalityRingMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, c := range oracleClusters(t) {
		for trial := 0; trial < 300; trial++ {
			n := 1 + rng.Intn(min(len(c.GPUs), 40))
			gpus := rng.Perm(len(c.GPUs))[:n]
			ranks := make([]spec.RankInfo, n)
			for i, r := range rng.Perm(n) {
				g := topo.GPUID(gpus[i])
				ranks[i] = spec.RankInfo{Rank: r, GPU: g, Host: c.HostOfGPU(g), NIC: c.NICOfGPU(g)}
			}
			checkLocalityRing(t, c, ranks)
		}
	}
}

// TestInterleaveMatchesReference compares interleaveByApp with the map-based
// version on random multi-app flow lists. App names are drawn so that name
// order differs from first-appearance order and from numeric order
// ("job10" < "job2").
func TestInterleaveMatchesReference(t *testing.T) {
	names := []spec.AppID{"job2", "job10", "b", "A", "job1", "a"}
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 500; trial++ {
		apps := 1 + rng.Intn(len(names))
		flows := make([]Flow, rng.Intn(80))
		for i := range flows {
			flows[i].App = names[rng.Intn(apps)]
		}
		want := referenceInterleave(flows)
		got := make([]int, 0, len(flows))
		for _, p := range interleaveByApp(flows) {
			got = append(got, p.flow)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("interleave of %d flows over %d apps:\n got  %v\n want %v", len(flows), apps, got, want)
		}
	}
}

// FuzzLocalityRing decodes bytes into a communicator on one of the oracle
// clusters and checks LocalityRing against its reference: byte 0 picks the
// cluster and byte 1 the rank count, then two bytes per rank pick a GPU (a
// GPU already taken moves on to the next free one), and each byte after that
// drives one step of a Fisher-Yates shuffle of the rank numbers.
func FuzzLocalityRing(f *testing.F) {
	clusters := oracleClusters(f)
	f.Add([]byte{0, 15, 0, 1, 2, 200, 0, 9, 1, 17, 3, 3, 0, 255, 7, 1, 2, 3})
	f.Add([]byte{1, 7, 0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 9, 8, 7})
	f.Add([]byte{2, 5, 0, 0, 0, 9, 0, 18, 0, 5, 0, 13, 1, 2, 3, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		c := clusters[int(data[0])%len(clusters)]
		n := 1 + int(data[1])%min(len(c.GPUs), 64)
		data = data[2:]
		taken := make([]bool, len(c.GPUs))
		ranks := make([]spec.RankInfo, n)
		for i := range ranks {
			g := 0
			if len(data) >= 2 {
				g = (int(data[0])<<8 | int(data[1])) % len(c.GPUs)
				data = data[2:]
			}
			for taken[g] {
				g = (g + 1) % len(c.GPUs)
			}
			taken[g] = true
			gpu := topo.GPUID(g)
			ranks[i] = spec.RankInfo{Rank: i, GPU: gpu, Host: c.HostOfGPU(gpu), NIC: c.NICOfGPU(gpu)}
		}
		for i := n - 1; i > 0 && len(data) > 0; i-- {
			j := int(data[0]) % (i + 1)
			data = data[1:]
			ranks[i].Rank, ranks[j].Rank = ranks[j].Rank, ranks[i].Rank
		}
		checkLocalityRing(t, c, ranks)
	})
}
