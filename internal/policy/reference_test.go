package policy

import (
	"math/rand"
	"reflect"
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

// referenceAssign is FFA's best-fit step as it was before the workspace:
// flows placed in referenceInterleave's order, each choice written straight
// into its communicator's map, which must exist.
func referenceAssign(a Assignment, flows []Flow, load []float64, allowed func(route int) bool) {
	for _, i := range referenceInterleave(flows) {
		f := &flows[i]
		if len(f.paths) == 0 {
			continue
		}
		best, bestCost := -1, 0.0
		for r, path := range f.paths {
			if allowed != nil && !allowed(r) {
				continue
			}
			cost := 0.0
			for _, l := range path {
				cost = max(cost, load[l]+f.Demand)
			}
			if best == -1 || cost < bestCost {
				best, bestCost = r, cost
			}
		}
		if best == -1 {
			best = 0
		}
		for _, l := range f.paths[best] {
			load[l] += f.Demand
		}
		a[f.Comm][f.Key] = best
	}
}

// referenceFlows extracts comms' flows without a workspace and returns them
// with an assignment holding an empty map for every communicator that has
// flows.
func referenceFlows(c *topo.Cluster, comms []spec.CommInfo) ([]Flow, Assignment) {
	var flows []Flow
	for i := range comms {
		flows = AppendFlows(flows, c, &comms[i])
	}
	a := Assignment{}
	for _, f := range flows {
		if a[f.Comm] == nil {
			a[f.Comm] = map[spec.ConnKey]int{}
		}
	}
	return flows, a
}

// referenceFFA is FFA before the workspace: a fresh load table and maps
// filled in placement order.
func referenceFFA(c *topo.Cluster, comms []spec.CommInfo) Assignment {
	flows, a := referenceFlows(c, comms)
	referenceAssign(a, flows, make([]float64, c.Net.NumLinks()), nil)
	return a
}

// referencePFA is PFA before the workspace: the low- and high-priority
// flows copied into two slices and placed one slice after the other over
// one load table.
func referencePFA(c *topo.Cluster, comms []spec.CommInfo, reserved []int, threshold int) Assignment {
	prio := map[spec.AppID]bool{}
	for _, ci := range comms {
		if ci.Priority >= threshold {
			prio[ci.App] = true
		}
	}
	flows, a := referenceFlows(c, comms)
	var low, high []Flow
	for _, f := range flows {
		if prio[f.App] {
			high = append(high, f)
		} else {
			low = append(low, f)
		}
	}
	load := make([]float64, c.Net.NumLinks())
	referenceAssign(a, low, load, func(r int) bool { return !slices.Contains(reserved, r) })
	referenceAssign(a, high, load, nil)
	return a
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
	var w Workspace // reused, as a decision loop reuses it
	for trial := 0; trial < 500; trial++ {
		apps := 1 + rng.Intn(len(names))
		flows := make([]Flow, rng.Intn(80))
		for i := range flows {
			flows[i].App = names[rng.Intn(apps)]
		}
		want := referenceInterleave(flows)
		got := make([]int, 0, len(flows))
		for _, i := range w.interleave(flows) {
			got = append(got, int(i))
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

// oracleApps are the application names the workspace checks draw from: few
// enough that several communicators share one, and ordered so that name
// order differs from first-seen and from numeric order.
var oracleApps = []spec.AppID{"job2", "job10", "b", "A", "a"}

// oracleComm builds communicator id on the given GPUs of c: application
// oracleApps[app%len], priority prio, and channels ring channels striped
// from the communicator's locality ring.
func oracleComm(c *topo.Cluster, id spec.CommID, app, prio, channels int, gpus []topo.GPUID) spec.CommInfo {
	info := spec.CommInfo{ID: id, App: oracleApps[app%len(oracleApps)], Priority: prio, Ranks: ranksOn(c, gpus)}
	info.Strategy = spec.RingStrategy(LocalityRing(c, info.Ranks), info.Ranks, channels, false)
	return info
}

// checkWorkspace fails t unless the decision w makes on comms is FFA's on a
// fresh workspace and referenceFFA's, and PFA's decision on comms (reserved
// routes and threshold from the arguments) is referencePFA's.
func checkWorkspace(t *testing.T, w *Workspace, c *topo.Cluster, comms []spec.CommInfo, reserved []int, threshold int) {
	t.Helper()
	flows := w.Extract(c, comms)
	w.Assign(c, flows)
	got := assignmentOf(flows, len(comms))
	if want := FFA(c, comms); !reflect.DeepEqual(got, want) {
		t.Fatalf("reused workspace over %d communicators:\n got  %s\n FFA  %s", len(comms), renderAssignment(got), renderAssignment(want))
	}
	if want := referenceFFA(c, comms); !reflect.DeepEqual(got, want) {
		t.Fatalf("workspace over %d communicators:\n got  %s\n want %s", len(comms), renderAssignment(got), renderAssignment(want))
	}
	got, want := PFA(c, comms, reserved, threshold), referencePFA(c, comms, reserved, threshold)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("PFA over %d communicators, routes %v reserved at >= %d:\n got  %s\n want %s",
			len(comms), reserved, threshold, renderAssignment(got), renderAssignment(want))
	}
}

// TestWorkspaceMatchesFFA reuses one workspace through a random sequence of
// communicator sets on each oracle cluster in turn — sets that grow and
// shrink, several communicators per application, one to three channels —
// and checks every decision against FFA and the references. A workspace
// that carried a link load, a placement order or a flow over from an
// earlier decision would place some flow differently.
func TestWorkspaceMatchesFFA(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var w Workspace
	for _, c := range oracleClusters(t) {
		var comms []spec.CommInfo
		for step, id := 0, spec.CommID(1); step < 80; step++ {
			if len(comms) > 0 && (len(comms) == 10 || rng.Intn(3) == 0) {
				i := rng.Intn(len(comms))
				comms = slices.Delete(comms, i, i+1)
			} else {
				n := 2 + rng.Intn(min(len(c.GPUs)-1, 24))
				gpus := make([]topo.GPUID, n)
				for i, g := range rng.Perm(len(c.GPUs))[:n] {
					gpus[i] = topo.GPUID(g)
				}
				comms = append(comms, oracleComm(c, id, rng.Intn(len(oracleApps)), rng.Intn(3), 1+rng.Intn(3), gpus))
				id++
			}
			checkWorkspace(t, &w, c, comms, []int{rng.Intn(4)}, 1+rng.Intn(2))
		}
	}
}

// FuzzFFAWorkspace decodes bytes into a sequence of communicator sets on one
// of the oracle clusters and runs checkWorkspace on each with one workspace
// reused across the sequence and across inputs. Byte 0 picks the cluster,
// byte 1 the reserved route and byte 2 the priority threshold; then each
// step is an op byte: a multiple of 4 removes a communicator (the op/4-th,
// modulo the count) when there is one, anything else adds one from the
// next bytes — rank count, application, priority, channels, then two bytes
// per rank picking a GPU (a GPU already taken moves on to the next free
// one).
func FuzzFFAWorkspace(f *testing.F) {
	clusters := oracleClusters(f)
	var w Workspace
	f.Add([]byte{0, 0, 1, 1, 15, 0, 2, 1, 0, 1, 2, 200, 0, 9, 1, 17, 3, 3, 0, 255, 7, 1, 2, 3, 5, 3, 1, 0, 2, 0, 0, 4, 0})
	f.Add([]byte{1, 1, 2, 1, 3, 1, 1, 2, 0, 0, 0, 1, 0, 2, 1, 3, 2, 2, 1, 0, 3, 0, 4, 0, 5, 8, 1, 5, 4, 0, 1, 0, 6, 0, 7})
	f.Add([]byte{2, 2, 1, 1, 6, 3, 0, 3, 0, 0, 0, 9, 0, 18, 0, 5, 0, 13, 1, 2, 1, 4, 4, 1, 1, 0, 3, 0, 30, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		c := clusters[int(data[0])%len(clusters)]
		reserved, threshold := []int{int(data[1]) % 4}, 1+int(data[2])%2
		data = data[3:]
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := int(data[0])
			data = data[1:]
			return b
		}
		var comms []spec.CommInfo
		for id := spec.CommID(1); len(data) > 0 && len(comms) < 12; {
			if op := next(); op%4 == 0 && len(comms) > 0 {
				i := op / 4 % len(comms)
				comms = slices.Delete(comms, i, i+1)
			} else {
				n := 2 + next()%min(len(c.GPUs)-1, 24)
				app, prio, channels := next(), next()%3, 1+next()%3
				taken := make([]bool, len(c.GPUs))
				gpus := make([]topo.GPUID, n)
				for i := range gpus {
					g := (next()<<8 | next()) % len(c.GPUs)
					for taken[g] {
						g = (g + 1) % len(c.GPUs)
					}
					taken[g] = true
					gpus[i] = topo.GPUID(g)
				}
				comms = append(comms, oracleComm(c, id, app, prio, channels, gpus))
				id++
			}
			checkWorkspace(t, &w, c, comms, reserved, threshold)
		}
	})
}
