package tuner

import (
	"reflect"
	"testing"

	"mccs/internal/collective"
	"mccs/internal/netsim"
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

// commOver builds a CommInfo whose rank i sits on gpus[i].
func commOver(c *topo.Cluster, gpus []topo.GPUID) *spec.CommInfo {
	info := &spec.CommInfo{ID: 1, App: "t"}
	for i, g := range gpus {
		info.Ranks = append(info.Ranks, spec.RankInfo{
			Rank: i, GPU: g, Host: c.HostOfGPU(g), NIC: c.NICOfGPU(g),
		})
	}
	return info
}

// fourHostGPUs: one GPU per host of the 4-host testbed (hosts 0,1 in rack
// 0; hosts 2,3 in rack 1).
func fourHostGPUs() []topo.GPUID { return []topo.GPUID{0, 2, 4, 6} }

func ringStrategy(order []int, nch int, pin bool) spec.Strategy {
	var st spec.Strategy
	for ci := 0; ci < nch; ci++ {
		route := spec.RouteECMP
		if pin {
			route = ci
		}
		st.Channels = append(st.Channels, spec.ChannelSpec{Order: append([]int(nil), order...), Route: route})
	}
	return st
}

func fullSpace(n int) Space {
	locality := make([]int, n)
	rev := make([]int, n)
	for i := range locality {
		locality[i] = i
		rev[i] = n - 1 - i
	}
	return Space{
		Orders: []Order{
			{Name: "locality", Ranks: locality},
			{Name: "locality-rev", Ranks: rev},
			{Name: "rank", Ranks: locality}, // duplicate of locality: must dedup
		},
		MaxChannels: 2,
		Pins:        []bool{false, true},
		HD:          true,
		Tree:        true,
	}
}

func TestCandidatesDeterministicValidUnique(t *testing.T) {
	c := testbed(t)
	info := commOver(c, fourHostGPUs())
	a := Candidates(info, fullSpace(4), 1<<20)
	b := Candidates(info, fullSpace(4), 1<<20)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("candidate enumeration is not deterministic")
	}
	// "rank" duplicates "locality": 2 orders × 2 ch × 2 pins ring = 8,
	// hd 2×2 = 4, tree 1 → 13.
	if len(a) != 13 {
		t.Fatalf("got %d candidates, want 13", len(a))
	}
	seen := map[string]bool{}
	for _, cand := range a {
		if seen[cand.Name] {
			t.Fatalf("duplicate candidate name %q", cand.Name)
		}
		seen[cand.Name] = true
		if err := cand.Strategy.Validate(info.NumRanks()); err != nil {
			t.Fatalf("candidate %q invalid: %v", cand.Name, err)
		}
	}
	for _, want := range []string{"ring/locality/ch2/pin", "ring/locality-rev/ch1/ecmp", "hd/ch2/pin", "tree"} {
		if !seen[want] {
			t.Fatalf("missing candidate %q", want)
		}
	}
}

func TestSearchDeterministicRanking(t *testing.T) {
	c := testbed(t)
	info := commOver(c, fourHostGPUs())
	m := DefaultModel(c)
	cands := Candidates(info, fullSpace(4), 64<<20)
	d1, err := m.Search(info, cands, collective.AllReduce, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := m.Search(info, cands, collective.AllReduce, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d1, d2) {
		t.Fatal("search is not deterministic")
	}
	for i := 1; i < len(d1.Scored); i++ {
		prev, cur := d1.Scored[i-1], d1.Scored[i]
		if cur.Predicted < prev.Predicted ||
			(cur.Predicted == prev.Predicted && cur.Name < prev.Name) {
			t.Fatalf("ranking out of order at %d: %v %q then %v %q",
				i, prev.Predicted, prev.Name, cur.Predicted, cur.Name)
		}
	}
}

// The Fig. 6 premise: on an oversubscribed spine-leaf, a ring that
// crosses racks twice beats one that crosses four times.
func TestLocalityBeatsInterleavedRing(t *testing.T) {
	c := testbed(t)
	var gpus []topo.GPUID
	for _, h := range c.Hosts {
		gpus = append(gpus, h.GPUs...)
	}
	info := commOver(c, gpus) // 8 ranks, hosts 0,0,1,1,2,2,3,3
	m := DefaultModel(c)
	// The locality ring crosses the oversubscribed rack boundary twice;
	// the host-interleaved ring crosses it on every edge, putting four
	// flows per direction onto two 50 Gbps uplinks.
	locality := ringStrategy([]int{0, 1, 2, 3, 4, 5, 6, 7}, 1, false)
	interleaved := ringStrategy([]int{0, 4, 1, 5, 2, 6, 3, 7}, 1, false)
	const bytes = 64 << 20
	tl := m.Predict(info, &locality, collective.AllReduce, 0, bytes)
	ti := m.Predict(info, &interleaved, collective.AllReduce, 0, bytes)
	if tl >= ti {
		t.Fatalf("locality %v not faster than interleaved %v", tl, ti)
	}
}

// Latency/bandwidth trade: the tree wins small messages, rings win large.
func TestTreeSmallRingLarge(t *testing.T) {
	c := testbed(t)
	info := commOver(c, fourHostGPUs())
	m := DefaultModel(c)
	ring := ringStrategy([]int{0, 1, 2, 3}, 1, false)
	tree := ringStrategy([]int{0, 1, 2, 3}, 1, false)
	tree.TreeThreshold = 1 << 62
	small, large := int64(1<<10), int64(64<<20)
	if ts, tr := m.Predict(info, &tree, collective.AllReduce, 0, small), m.Predict(info, &ring, collective.AllReduce, 0, small); ts >= tr {
		t.Fatalf("small: tree %v not faster than ring %v", ts, tr)
	}
	if ts, tr := m.Predict(info, &tree, collective.AllReduce, 0, large), m.Predict(info, &ring, collective.AllReduce, 0, large); ts <= tr {
		t.Fatalf("large: tree %v not slower than ring %v", ts, tr)
	}
}

// Halving-doubling runs ring-class traffic in log rounds, so it wins
// when α dominates.
func TestHDWinsLatencyBoundAllReduce(t *testing.T) {
	c := testbed(t)
	var gpus []topo.GPUID
	for _, h := range c.Hosts {
		gpus = append(gpus, h.GPUs...)
	}
	info := commOver(c, gpus) // 8 ranks
	m := DefaultModel(c)
	ring := ringStrategy([]int{0, 1, 2, 3, 4, 5, 6, 7}, 1, false)
	hd := ringStrategy([]int{0, 1, 2, 3, 4, 5, 6, 7}, 1, false)
	hd.Algorithm = spec.AlgoHD
	const bytes = 32 << 10
	th := m.Predict(info, &hd, collective.AllReduce, 0, bytes)
	tr := m.Predict(info, &ring, collective.AllReduce, 0, bytes)
	if th >= tr {
		t.Fatalf("hd %v not faster than ring %v at %d bytes", th, tr, bytes)
	}
}

// The Fig. 7 premise: external load on one ring segment makes the
// reversed ring the better strategy, and the model sees it through
// ExtLoad.
func TestExtLoadFlipsRingDirection(t *testing.T) {
	c, err := topo.BuildSwitchRing(topo.RingConfig{
		Switches: 4, GPUsPerHost: 1, NICsPerHost: 1,
		NICBps: 100 * topo.Gbps, SwitchBps: 100 * topo.Gbps,
	})
	if err != nil {
		t.Fatal(err)
	}
	info := commOver(c, []topo.GPUID{0, 1, 2, 3})
	congested, err := c.RingLinkBetween(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := DefaultModel(c)
	fwd := ringStrategy([]int{0, 1, 2, 3}, 1, false)
	rev := ringStrategy([]int{3, 2, 1, 0}, 1, false)
	const bytes = 64 << 20

	// Idle fabric: directions are symmetric.
	if tf, tr := m.Predict(info, &fwd, collective.AllReduce, 0, bytes), m.Predict(info, &rev, collective.AllReduce, 0, bytes); tf != tr {
		t.Fatalf("idle fabric: fwd %v != rev %v", tf, tr)
	}
	m.ExtLoad = func(l netsim.LinkID) float64 {
		if l == congested {
			return 75 * topo.Gbps
		}
		return 0
	}
	tf := m.Predict(info, &fwd, collective.AllReduce, 0, bytes)
	tr := m.Predict(info, &rev, collective.AllReduce, 0, bytes)
	if tr >= tf {
		t.Fatalf("under congestion: reversed %v not faster than forward %v", tr, tf)
	}
}

// Pinning spreads channels across disjoint paths; ECMP's expected-share
// discount must not rank better than a clean pin on an idle fabric.
func TestPinnedNotWorseThanECMP(t *testing.T) {
	c := testbed(t)
	info := commOver(c, fourHostGPUs())
	m := DefaultModel(c)
	ecmp := ringStrategy([]int{0, 1, 2, 3}, 2, false)
	pin := ringStrategy([]int{0, 1, 2, 3}, 2, true)
	const bytes = 64 << 20
	tp := m.Predict(info, &pin, collective.AllReduce, 0, bytes)
	te := m.Predict(info, &ecmp, collective.AllReduce, 0, bytes)
	if tp > te {
		t.Fatalf("pinned %v worse than ecmp %v", tp, te)
	}
}

func TestPredictTrivialComm(t *testing.T) {
	c := testbed(t)
	info := commOver(c, []topo.GPUID{0})
	m := DefaultModel(c)
	st := ringStrategy([]int{0}, 1, false)
	if got := m.Predict(info, &st, collective.AllReduce, 0, 1<<20); got != m.Fixed {
		t.Fatalf("single rank predict = %v, want fixed %v", got, m.Fixed)
	}
}

func TestSearchRejectsInvalidCandidate(t *testing.T) {
	c := testbed(t)
	info := commOver(c, fourHostGPUs())
	m := DefaultModel(c)
	bad := []Candidate{{Name: "bad", Strategy: ringStrategy([]int{0, 1}, 1, false)}}
	if _, err := m.Search(info, bad, collective.AllReduce, 1<<20); err == nil {
		t.Fatal("search accepted a strategy sized for the wrong communicator")
	}
}

// The model prices what the proxy connects: tree edges are always ECMP,
// whatever channel 0 is pinned to, so a pinned strategy and its ECMP twin
// predict the same tree time (they differ on the rings).
func TestTreePricedAsECMPUnderPinnedStrategy(t *testing.T) {
	c := testbed(t)
	info := commOver(c, fourHostGPUs())
	m := DefaultModel(c)
	pinned := ringStrategy([]int{0, 1, 2, 3}, 1, true)
	ecmp := ringStrategy([]int{0, 1, 2, 3}, 1, false)
	const small, large = 16 << 10, 64 << 20
	if p, e := m.Predict(info, &pinned, collective.AllReduce, 0, large), m.Predict(info, &ecmp, collective.AllReduce, 0, large); p == e {
		t.Fatalf("rings: pinned %v == ecmp %v; the pin should matter there", p, e)
	}
	pinned.TreeThreshold, ecmp.TreeThreshold = 1<<20, 1<<20
	if p, e := m.Predict(info, &pinned, collective.AllReduce, 0, small), m.Predict(info, &ecmp, collective.AllReduce, 0, small); p != e {
		t.Fatalf("tree: pinned strategy predicts %v, its ECMP twin %v", p, e)
	}
}

// A rooted op away from the provisioned root stays on the rings in the
// proxy, so it must be priced there: same as under a strategy with no
// tree at all, and unlike the same op at root 0.
func TestRootedOpOffTheTreeRootPricedOnRings(t *testing.T) {
	c := testbed(t)
	info := commOver(c, fourHostGPUs())
	m := DefaultModel(c)
	ring := ringStrategy([]int{0, 1, 2, 3}, 1, false)
	tree := ringStrategy([]int{0, 1, 2, 3}, 1, false)
	tree.TreeThreshold = 1 << 20
	const bytes = 16 << 10
	for _, op := range []collective.Op{collective.Broadcast, collective.Reduce} {
		onRing := m.Predict(info, &ring, op, 3, bytes)
		if got := m.Predict(info, &tree, op, 3, bytes); got != onRing {
			t.Errorf("%v root 3 under a tree strategy = %v, want the ring's %v", op, got, onRing)
		}
		if got := m.Predict(info, &tree, op, 0, bytes); got == onRing {
			t.Errorf("%v root 0 under a tree strategy = %v, the ring's price; want the tree's", op, got)
		}
	}
}
