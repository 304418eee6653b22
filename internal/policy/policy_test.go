package policy

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"mccs/internal/proxy"
	"mccs/internal/sim"
	"mccs/internal/spec"
	"mccs/internal/topo"
)

func testbed(t *testing.T) *topo.Cluster {
	t.Helper()
	c, err := topo.BuildClos(topo.TestbedConfig())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// ranksOn builds RankInfos placing rank i on the given GPU.
func ranksOn(c *topo.Cluster, gpus []topo.GPUID) []spec.RankInfo {
	var out []spec.RankInfo
	for i, g := range gpus {
		out = append(out, spec.RankInfo{Rank: i, GPU: g, Host: c.HostOfGPU(g), NIC: c.NICOfGPU(g)})
	}
	return out
}

func TestLocalityRingMinimizesCrossings(t *testing.T) {
	c := testbed(t)
	// One GPU per host, ranks deliberately assigned in a rack-zigzag
	// order: rank0 -> host0(rack0), rank1 -> host2(rack1),
	// rank2 -> host1(rack0), rank3 -> host3(rack1).
	gpus := []topo.GPUID{
		c.Hosts[0].GPUs[0], c.Hosts[2].GPUs[0],
		c.Hosts[1].GPUs[0], c.Hosts[3].GPUs[0],
	}
	ranks := ranksOn(c, gpus)
	identity := []int{0, 1, 2, 3}
	if got := CrossRackEdges(c, ranks, identity); got != 4 {
		t.Errorf("zigzag identity ring crossings = %d, want 4", got)
	}
	opt := LocalityRing(c, ranks)
	if got := CrossRackEdges(c, ranks, opt); got != 2 {
		t.Errorf("locality ring crossings = %d, want 2 (order %v)", got, opt)
	}
	if got := OptimalCrossRackEdges(c, ranks); got != 2 {
		t.Errorf("optimal crossings = %d, want 2", got)
	}
}

func TestLocalityRingIsPermutation(t *testing.T) {
	c := testbed(t)
	var gpus []topo.GPUID
	for _, h := range c.Hosts {
		gpus = append(gpus, h.GPUs...)
	}
	ranks := ranksOn(c, gpus)
	order := LocalityRing(c, ranks)
	seen := make([]bool, len(order))
	for _, r := range order {
		if r < 0 || r >= len(order) || seen[r] {
			t.Fatalf("order %v is not a permutation", order)
		}
		seen[r] = true
	}
	// Ranks on one host must be contiguous in the ring.
	hostAt := func(pos int) topo.HostID { return ranks[order[pos]].Host }
	changes := 0
	for i := range order {
		if hostAt(i) != hostAt((i+1)%len(order)) {
			changes++
		}
	}
	if changes != len(c.Hosts) {
		t.Errorf("host boundary changes = %d, want %d (hosts contiguous)", changes, len(c.Hosts))
	}
}

func TestOptimalRingStrategyShape(t *testing.T) {
	c := testbed(t)
	// 8-GPU communicator (2 ranks per host): one channel per spine, each
	// pinned to its path, intra-host order striped across channels.
	var gpus8 []topo.GPUID
	for _, h := range c.Hosts {
		gpus8 = append(gpus8, h.GPUs...)
	}
	info8 := &spec.CommInfo{ID: 1, App: "a", Ranks: ranksOn(c, gpus8)}
	full := OptimalRingStrategy(RingStrategyOptions{PinRoutes: true})(c, info8)
	if len(full.Channels) != 2 {
		t.Fatalf("8-GPU channels = %d, want 2 (one per spine)", len(full.Channels))
	}
	if full.Channels[0].Route != 0 || full.Channels[1].Route != 1 {
		t.Errorf("routes = %d,%d, want 0,1", full.Channels[0].Route, full.Channels[1].Route)
	}
	if err := full.Validate(8); err != nil {
		t.Error(err)
	}
	capped := OptimalRingStrategy(RingStrategyOptions{MaxChannels: 1, PinRoutes: true})(c, info8)
	if len(capped.Channels) != 1 {
		t.Errorf("capped channels = %d, want 1", len(capped.Channels))
	}

	// 4-GPU communicator (1 rank per host): a single ring, since each
	// host contributes one NIC.
	gpus4 := []topo.GPUID{c.Hosts[0].GPUs[0], c.Hosts[1].GPUs[0], c.Hosts[2].GPUs[0], c.Hosts[3].GPUs[0]}
	info4 := &spec.CommInfo{ID: 2, App: "a", Ranks: ranksOn(c, gpus4)}
	single := OptimalRingStrategy(RingStrategyOptions{PinRoutes: true})(c, info4)
	if len(single.Channels) != 1 {
		t.Fatalf("4-GPU channels = %d, want 1 (one NIC per host)", len(single.Channels))
	}
	noFA := OptimalRingStrategy(RingStrategyOptions{PinRoutes: false})(c, info4)
	for _, ch := range noFA.Channels {
		if ch.Route != spec.RouteECMP {
			t.Errorf("MCCS(-FA) channel pinned to %d, want ECMP", ch.Route)
		}
	}
}

func TestExtractFlows(t *testing.T) {
	c := testbed(t)
	gpus := []topo.GPUID{c.Hosts[0].GPUs[0], c.Hosts[1].GPUs[0], c.Hosts[2].GPUs[0], c.Hosts[3].GPUs[0]}
	info := spec.CommInfo{ID: 1, App: "a", Ranks: ranksOn(c, gpus)}
	info.Strategy = spec.Strategy{Channels: []spec.ChannelSpec{{Order: []int{0, 1, 2, 3}, Route: spec.RouteECMP}}}
	flows := ExtractFlows(c, []spec.CommInfo{info})
	// All hosts distinct: every ring edge is a flow; 4 edges, 1 channel.
	if len(flows) != 4 {
		t.Fatalf("flows = %d, want 4", len(flows))
	}
	for _, f := range flows {
		if len(f.paths) == 0 {
			t.Errorf("flow %v has no paths", f.Key)
		}
		if f.Demand != 50*topo.Gbps {
			t.Errorf("flow demand = %g, want NIC rate", f.Demand)
		}
	}
}

func TestFFASpreadsCrossRackFlows(t *testing.T) {
	c := testbed(t)
	// Two single-channel comms, each with one cross-rack edge pair,
	// competing for the two spine paths. FFA must place them disjointly.
	mk := func(id spec.CommID, app spec.AppID, gpuIdx int) spec.CommInfo {
		gpus := []topo.GPUID{
			c.Hosts[0].GPUs[gpuIdx], c.Hosts[1].GPUs[gpuIdx],
			c.Hosts[2].GPUs[gpuIdx], c.Hosts[3].GPUs[gpuIdx],
		}
		info := spec.CommInfo{ID: id, App: app, Ranks: ranksOn(c, gpus)}
		info.Strategy = spec.Strategy{Channels: []spec.ChannelSpec{{Order: []int{0, 1, 2, 3}, Route: spec.RouteECMP}}}
		return info
	}
	comms := []spec.CommInfo{mk(1, "A", 0), mk(2, "B", 1)}
	a := FFA(c, comms)
	if len(a) != 2 {
		t.Fatalf("assignment covers %d comms, want 2", len(a))
	}
	// Only cross-rack flows have route diversity (same-rack edges have a
	// single leaf path). The four cross-rack flows (1->2 and 3->0 in
	// each comm) must balance across the two spines.
	isCross := func(key spec.ConnKey) bool {
		return (key.FromRank == 1 && key.ToRank == 2) || (key.FromRank == 3 && key.ToRank == 0)
	}
	spineUse := map[int]int{}
	for _, routes := range a {
		for key, r := range routes {
			if isCross(key) {
				spineUse[r]++
			}
		}
	}
	if spineUse[0]+spineUse[1] != 4 {
		t.Fatalf("cross-rack flows = %d, want 4: %v", spineUse[0]+spineUse[1], spineUse)
	}
	if spineUse[0] != 2 || spineUse[1] != 2 {
		t.Errorf("FFA imbalance across spines: %v", spineUse)
	}
}

func TestPFAReservesRoutesForPriorityApp(t *testing.T) {
	c := testbed(t)
	mk := func(id spec.CommID, app spec.AppID, gpuIdx int, prio int) spec.CommInfo {
		gpus := []topo.GPUID{
			c.Hosts[0].GPUs[gpuIdx], c.Hosts[1].GPUs[gpuIdx],
			c.Hosts[2].GPUs[gpuIdx], c.Hosts[3].GPUs[gpuIdx],
		}
		info := spec.CommInfo{ID: id, App: app, Ranks: ranksOn(c, gpus), Priority: prio}
		info.Strategy = spec.Strategy{Channels: []spec.ChannelSpec{{Order: []int{0, 1, 2, 3}, Route: spec.RouteECMP}}}
		return info
	}
	comms := []spec.CommInfo{mk(1, "hi", 0, 2), mk(2, "lo", 1, 0)}
	a := PFA(c, comms, []int{0}, 1)
	// Low-priority *cross-rack* flows must avoid reserved route 0
	// (same-rack flows have a single path, so the route index is moot).
	isCross := func(key spec.ConnKey) bool {
		return (key.FromRank == 1 && key.ToRank == 2) || (key.FromRank == 3 && key.ToRank == 0)
	}
	for key, r := range a[2] {
		if isCross(key) && r == 0 {
			t.Errorf("low-priority flow %v assigned reserved route 0", key)
		}
	}
	// High-priority cross-rack flows should end up on the clean reserved
	// route.
	usedReserved := false
	for key, r := range a[1] {
		if isCross(key) && r == 0 {
			usedReserved = true
		}
	}
	if !usedReserved {
		t.Error("priority app never used its reserved route")
	}
}

func mkTrace(period, busy time.Duration, n int) []proxy.OpResult {
	var tr []proxy.OpResult
	for i := 0; i < n; i++ {
		start := sim.Time(time.Duration(i) * period)
		tr = append(tr, proxy.OpResult{Seq: uint64(i + 1), Start: start, End: start.Add(busy), Bytes: 1 << 20})
	}
	return tr
}

func TestComputeTSFindsIdleWindow(t *testing.T) {
	period := 10 * time.Millisecond
	busy := 3 * time.Millisecond
	sched, err := ComputeTS(mkTrace(period, busy, 8), 0)
	if err != nil {
		t.Fatal(err)
	}
	if sched.Period != period {
		t.Errorf("period = %v, want %v", sched.Period, period)
	}
	var total time.Duration
	for _, sl := range sched.Slots {
		total += sl.Length
	}
	if total != period-busy {
		t.Errorf("allowed time = %v, want %v", total, period-busy)
	}
	// The busy phase [0, busy) must not be allowed.
	if got := sched.NextAllowed(0); got < sim.Time(busy) {
		t.Errorf("NextAllowed(0) = %v lands inside the busy window", got)
	}
}

func TestComputeTSWithGuard(t *testing.T) {
	period := 10 * time.Millisecond
	busy := 3 * time.Millisecond
	guard := 500 * time.Microsecond
	sched, err := ComputeTS(mkTrace(period, busy, 8), guard)
	if err != nil {
		t.Fatal(err)
	}
	var total time.Duration
	for _, sl := range sched.Slots {
		total += sl.Length
	}
	if total != period-busy-2*guard {
		t.Errorf("allowed = %v, want %v", total, period-busy-2*guard)
	}
}

func TestComputeTSSaturatedApp(t *testing.T) {
	// An app that communicates the whole period leaves no window: the
	// schedule must degrade to always-allowed rather than starve others.
	sched, err := ComputeTS(mkTrace(10*time.Millisecond, 11*time.Millisecond, 8), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Slots) != 0 {
		t.Errorf("saturated app produced slots %v, want none", sched.Slots)
	}
}

func TestComputeTSErrors(t *testing.T) {
	if _, err := ComputeTS(nil, 0); err == nil {
		t.Error("empty trace accepted")
	}
	if _, err := ComputeTS(mkTrace(time.Millisecond, time.Microsecond, 2), 0); err == nil {
		t.Error("too-short trace accepted")
	}
}

// TestHistoryCoversTSWindow: the service remembers at least the
// collectives the schedule estimator reads.
func TestHistoryCoversTSWindow(t *testing.T) {
	if proxy.HistoryLen < tsWindow {
		t.Fatalf("runners keep %d collectives, ComputeTS reads %d", proxy.HistoryLen, tsWindow)
	}
}

// Property: LocalityRing is always a permutation achieving the optimal
// cross-rack edge count for random placements on the large cluster.
func TestQuickLocalityRingOptimal(t *testing.T) {
	c, err := topo.BuildClos(topo.LargeScaleConfig())
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%31) + 2
		rng := rand.New(rand.NewSource(seed))
		perm := rng.Perm(len(c.GPUs))[:n]
		gpus := make([]topo.GPUID, n)
		for i, g := range perm {
			gpus[i] = topo.GPUID(g)
		}
		ranks := ranksOn(c, gpus)
		order := LocalityRing(c, ranks)
		if len(order) != n {
			return false
		}
		seen := make([]bool, n)
		for _, r := range order {
			if r < 0 || r >= n || seen[r] {
				return false
			}
			seen[r] = true
		}
		return CrossRackEdges(c, ranks, order) == OptimalCrossRackEdges(c, ranks)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: FFA never produces an out-of-range route and covers every
// inter-host flow.
func TestQuickFFAWellFormed(t *testing.T) {
	c, err := topo.BuildClos(topo.LargeScaleConfig())
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64, nCommsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		nComms := int(nCommsRaw%4) + 1
		var comms []spec.CommInfo
		for i := 0; i < nComms; i++ {
			n := rng.Intn(14) + 2
			perm := rng.Perm(len(c.GPUs))[:n]
			gpus := make([]topo.GPUID, n)
			for j, g := range perm {
				gpus[j] = topo.GPUID(g)
			}
			info := spec.CommInfo{ID: spec.CommID(i + 1), App: spec.AppID(rune('A' + i)), Ranks: ranksOn(c, gpus)}
			order := LocalityRing(c, info.Ranks)
			info.Strategy = spec.Strategy{Channels: []spec.ChannelSpec{{Order: order, Route: spec.RouteECMP}}}
			comms = append(comms, info)
		}
		a := FFA(c, comms)
		flows := ExtractFlows(c, comms)
		covered := 0
		for _, fl := range flows {
			r, ok := a[fl.Comm][fl.Key]
			if !ok {
				return false
			}
			if r < 0 || r >= len(fl.paths) {
				return false
			}
			covered++
		}
		return covered == len(flows)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestLocalityRingPodAware(t *testing.T) {
	// Three-tier fat-tree: the locality ring must also minimize
	// cross-POD edges (the paper's "under the same pod" grouping).
	c, err := topo.BuildFatTree(topo.FatTreeConfig{
		Pods: 3, AggsPerPod: 2, CoresPerAgg: 2,
		LeavesPerPod: 2, HostsPerLeaf: 2, GPUsPerHost: 4, NICsPerHost: 2,
		NICBps: 100 * topo.Gbps, LeafAggBps: 200 * topo.Gbps, AggCoreBps: 400 * topo.Gbps,
	})
	if err != nil {
		t.Fatal(err)
	}
	// One GPU on one host of every rack, ranks assigned in a pod-zigzag
	// order (racks 0,2,4,1,3,5).
	rackFirstHost := make(map[topo.RackID]topo.HostID)
	for _, h := range c.Hosts {
		if _, ok := rackFirstHost[h.Rack]; !ok {
			rackFirstHost[h.Rack] = h.ID
		}
	}
	var gpus []topo.GPUID
	for _, r := range []topo.RackID{0, 2, 4, 1, 3, 5} {
		gpus = append(gpus, c.Hosts[rackFirstHost[r]].GPUs[0])
	}
	ranks := ranksOn(c, gpus)
	identity := []int{0, 1, 2, 3, 4, 5}
	if got := CrossPodEdges(c, ranks, identity); got != 6 {
		t.Errorf("zigzag cross-pod edges = %d, want 6", got)
	}
	order := LocalityRing(c, ranks)
	if got := CrossPodEdges(c, ranks, order); got != OptimalCrossPodEdges(c, ranks) {
		t.Errorf("locality ring cross-pod edges = %d, want optimal %d (order %v)",
			got, OptimalCrossPodEdges(c, ranks), order)
	}
	if got := CrossRackEdges(c, ranks, order); got != OptimalCrossRackEdges(c, ranks) {
		t.Errorf("locality ring cross-rack edges = %d, want optimal %d",
			got, OptimalCrossRackEdges(c, ranks))
	}
}
