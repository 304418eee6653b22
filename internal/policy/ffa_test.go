package policy

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"mccs/internal/allocpin"
	"mccs/internal/spec"
	"mccs/internal/topo"
)

// renderAssignment prints an assignment in a fixed order, one
// "comm/channel:from>to=route" token per connection.
func renderAssignment(a Assignment) string {
	comms := make([]spec.CommID, 0, len(a))
	for id := range a {
		comms = append(comms, id)
	}
	sort.Slice(comms, func(i, j int) bool { return comms[i] < comms[j] })
	var sb strings.Builder
	for _, id := range comms {
		keys := make([]spec.ConnKey, 0, len(a[id]))
		for k := range a[id] {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			x, y := keys[i], keys[j]
			if x.Channel != y.Channel {
				return x.Channel < y.Channel
			}
			if x.FromRank != y.FromRank {
				return x.FromRank < y.FromRank
			}
			return x.ToRank < y.ToRank
		})
		for _, k := range keys {
			fmt.Fprintf(&sb, "%d/%d:%d>%d=%d ", id, k.Channel, k.FromRank, k.ToRank, a[id][k])
		}
	}
	return strings.TrimSpace(sb.String())
}

// fig5bSetup reconstructs harness.Setup(c, n) — the Fig. 5b placements the
// Fig. 8 and Fig. 10 experiments run on (harness imports policy, so the
// placements are restated here) — as the communicator view the controller
// hands FFA/PFA: one communicator per app under the MCCS ring strategy.
func fig5bSetup(t *testing.T, c *topo.Cluster, n int) []spec.CommInfo {
	t.Helper()
	g := func(h, idx int) topo.GPUID { return c.Hosts[h].GPUs[idx] }
	var apps [][]topo.GPUID
	switch n {
	case 1:
		apps = [][]topo.GPUID{{g(0, 0), g(2, 0), g(1, 0), g(3, 0)}, {g(0, 1), g(2, 1), g(1, 1), g(3, 1)}}
	case 2:
		apps = [][]topo.GPUID{{g(0, 0), g(2, 0), g(1, 0), g(3, 0)}, {g(0, 1), g(2, 1)}, {g(1, 1), g(3, 1)}}
	case 3:
		apps = [][]topo.GPUID{{g(0, 0), g(0, 1), g(2, 0), g(2, 1)}, {g(1, 0), g(3, 0)}, {g(1, 1), g(3, 1)}}
	case 4:
		apps = [][]topo.GPUID{{g(0, 0), g(2, 0)}, {g(0, 1), g(2, 1)}}
	default:
		t.Fatalf("unknown setup %d", n)
	}
	provider := OptimalRingStrategy(RingStrategyOptions{PinRoutes: true})
	var comms []spec.CommInfo
	for i, gpus := range apps {
		info := spec.CommInfo{
			ID: spec.CommID(i + 1), App: spec.AppID(rune('A' + i)),
			Ranks: ranksOn(c, gpus), Priority: 2 - i, // Fig. 10: A=2, B=1, C=0
		}
		info.Strategy = provider(c, &info)
		comms = append(comms, info)
	}
	return comms
}

// probeComms is the benchmark's policy.probe.ffa_ms input: 48 synthetic
// 16-rank communicators on the 768-GPU Clos, rank r of communicator c on
// GPU r*48+c, one rank-order ring each.
func probeComms(c *topo.Cluster) []spec.CommInfo {
	comms := make([]spec.CommInfo, 48)
	for i := range comms {
		info := spec.CommInfo{ID: spec.CommID(i + 1), App: spec.AppID(fmt.Sprintf("t%d", i))}
		ch := spec.ChannelSpec{Route: spec.RouteECMP}
		for r := 0; r < 16; r++ {
			gpu := topo.GPUID(r*48 + i)
			info.Ranks = append(info.Ranks, spec.RankInfo{Rank: r, GPU: gpu, Host: c.HostOfGPU(gpu), NIC: c.NICOfGPU(gpu)})
			ch.Order = append(ch.Order, r)
		}
		info.Strategy.Channels = []spec.ChannelSpec{ch}
		comms[i] = info
	}
	return comms
}

// goldenAssignments were captured at the commit before FFA/PFA moved to a
// dense link-load table and aliased path lists (PR 16): the rewrite must
// not move a single route.
var goldenAssignments = map[string]string{
	"setup1/FFA":    "1/0:0>2=0 1/0:1>3=0 1/0:2>1=0 1/0:3>0=0 2/0:0>2=0 2/0:1>3=0 2/0:2>1=1 2/0:3>0=1",
	"setup2/FFA":    "1/0:0>2=0 1/0:1>3=0 1/0:2>1=0 1/0:3>0=0 2/0:0>1=0 2/0:1>0=0 3/0:0>1=1 3/0:1>0=1",
	"setup3/FFA":    "1/0:1>2=0 1/0:3>0=0 1/1:0>3=1 1/1:2>1=1 2/0:0>1=1 2/0:1>0=1 3/0:0>1=0 3/0:1>0=0",
	"setup4/FFA":    "1/0:0>1=0 1/0:1>0=0 2/0:0>1=1 2/0:1>0=1",
	"setup3/PFA>=2": "1/0:1>2=0 1/0:3>0=0 1/1:0>3=0 1/1:2>1=0 2/0:0>1=1 2/0:1>0=1 3/0:0>1=1 3/0:1>0=1",
	"setup3/PFA>=1": "1/0:1>2=0 1/0:3>0=0 1/1:0>3=1 1/1:2>1=1 2/0:0>1=0 2/0:1>0=0 3/0:0>1=1 3/0:1>0=1",
	"setup2/PFA>=1": "1/0:0>2=0 1/0:1>3=0 1/0:2>1=0 1/0:3>0=0 2/0:0>1=1 2/0:1>0=1 3/0:0>1=0 3/0:1>0=0",
}

// goldenProbeRoutes is FFA's answer on probeComms, captured at the same
// commit: per communicator, the route of ring edge r -> r+1 as one hex
// digit (cross-rack pairs have 16 paths), r = 0..15.
var goldenProbeRoutes = []string{
	"0878787878787878", "1900000000000000", "c678787878787878", "7899999999999999",
	"aaaaaaaaaaaaaaaa", "bbbbbbbbbbbbbbbb", "cdcccccccccccccc", "dedddddddddddddd",
	"efeeeeeeeeeeeeee", "f0ffffffffffffff", "2011111111111111", "3122222222222222",
	"4233333333333333", "5344444444444444", "6455555555555555", "7566666666666666",
	"8687878787878787", "9799999999999999", "aaaaaaaaaaaaaaaa", "bbbbbbbbbbbbbbbb",
	"dccccccccccccccc", "eddddddddddddddd", "feeeeeeeeeeeeeee", "0fffffffffffffff",
	"1000000000000000", "2111111111111111", "3222222222222222", "4333333333333333",
	"5444444444444444", "6555555555555555", "8766666666666666", "9987878787878787",
	"7878787878787878", "c000000000000000", "0111111111111111", "1222222222222222",
	"2333333333333333", "3444444444444444", "4555555555555555", "5666666666666666",
	"6878787878787878", "7999999999999999", "aaaaaaaaaaaaaaaa", "bbbbbbbbbbbbbbbb",
	"cccccccccccccccd", "ddddddddddddddde", "eeeeeeeeeeeeeeef", "fffffffffffffff0",
}

func TestFFAPFAGoldenAssignments(t *testing.T) {
	c := testbed(t)
	got := map[string]string{}
	for n := 1; n <= 4; n++ {
		got[fmt.Sprintf("setup%d/FFA", n)] = renderAssignment(FFA(c, fig5bSetup(t, c, n)))
	}
	// Fig. 10's PFA phase: setup 3, route 0 reserved for apps at priority
	// >= 2 (harness.RunDynamic), and the controller default (>= 1).
	got["setup3/PFA>=2"] = renderAssignment(PFA(c, fig5bSetup(t, c, 3), []int{0}, 2))
	got["setup3/PFA>=1"] = renderAssignment(PFA(c, fig5bSetup(t, c, 3), []int{0}, 1))
	got["setup2/PFA>=1"] = renderAssignment(PFA(c, fig5bSetup(t, c, 2), []int{0, 1}, 1))
	for name, s := range got {
		if want := goldenAssignments[name]; s != want {
			t.Errorf("%s:\n got  %s\n want %s", name, s, want)
		}
	}

	large, err := topo.BuildClos(topo.LargeScaleConfig())
	if err != nil {
		t.Fatal(err)
	}
	comms := probeComms(large)
	a := FFA(large, comms)
	var routes []string
	for _, ci := range comms {
		var sb strings.Builder
		for r := 0; r < 16; r++ {
			route, ok := a[ci.ID][spec.ConnKey{Channel: 0, FromRank: r, ToRank: (r + 1) % 16}]
			if !ok || route < 0 || route > 15 {
				t.Fatalf("comm %d edge %d: route %d (present %v)", ci.ID, r, route, ok)
			}
			fmt.Fprintf(&sb, "%x", route)
		}
		routes = append(routes, sb.String())
	}
	if fmt.Sprint(routes) != fmt.Sprint(goldenProbeRoutes) {
		t.Errorf("probe routes:\n got  %q\n want %q", routes, goldenProbeRoutes)
	}
}

// FFA on a cluster whose path cache is warm allocates a constant per
// communicator and nothing per flow, path or hop: the flow list, the link
// loads and the placement order (3), the outer assignment map (4 once it
// holds more than eight communicators) and each communicator's inner map,
// made at its final size (4 for the probe's 16 flows). Flows alias the
// fabric's cached path lists. (The copying version made 49 allocations per
// 16-path, 4-hop flow; with maps grown flow by flow, a map-based
// interleaving and sort swappers, the probe's 48 communicators took 604.)
func TestFFAAllocatesPerComm(t *testing.T) {
	large, err := topo.BuildClos(topo.LargeScaleConfig())
	if err != nil {
		t.Fatal(err)
	}
	comms := probeComms(large)
	FFA(large, comms) // warms the path cache
	for _, n := range []int{12, 24, 48} {
		got := allocpin.Min(5, func() { FFA(large, comms[:n]) })
		if want := float64(7 + 4*n); got != want {
			t.Errorf("FFA over %d communicators: %v allocations, want %v", n, got, want)
		}
	}
}

// A workspace that has seen its input allocates nothing on it again: the
// extraction buffer, the link loads and the interleaving scratch are all
// reused, and a decision's choices go into the flows, not into maps. (FFA,
// the map wrapper, made 7 + 4n allocations per decision for this input.)
func TestWorkspaceAllocatesNothingWarm(t *testing.T) {
	large, err := topo.BuildClos(topo.LargeScaleConfig())
	if err != nil {
		t.Fatal(err)
	}
	comms := probeComms(large)
	var w Workspace
	w.Assign(large, w.Extract(large, comms))
	for _, n := range []int{48, 12, 24} {
		if got := allocpin.Min(5, func() { w.Assign(large, w.Extract(large, comms[:n])) }); got != 0 {
			t.Errorf("warm workspace over %d communicators: %v allocations, want 0", n, got)
		}
	}
}

// LocalityRing allocates its result and nothing else. (The four-map version
// took 76 allocations for a 16-rank communicator.)
func TestLocalityRingAllocatesOnce(t *testing.T) {
	large, err := topo.BuildClos(topo.LargeScaleConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, ci := range probeComms(large)[:4] {
		if got := allocpin.Min(5, func() { LocalityRing(large, ci.Ranks) }); got != 1 {
			t.Errorf("LocalityRing on %d ranks: %v allocations, want 1", len(ci.Ranks), got)
		}
	}
}
