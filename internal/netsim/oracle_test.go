package netsim

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"mccs/internal/sim"
)

// checkOracle asserts the optimized allocator's committed state matches
// referenceAllocate exactly — not within an epsilon: determinism demands
// identical float accumulation order, so every bit must agree.
func checkOracle(t *testing.T, fb *Fabric, seed int64) bool {
	t.Helper()
	fb.flush()
	refRates, refLink, refExt := fb.referenceAllocate()
	ok := true
	for _, fl := range fb.flows {
		if got, want := fl.rate, refRates[fl]; got != want {
			t.Logf("seed %d: flow %d rate %v, oracle %v", seed, fl.ID, got, want)
			ok = false
		}
	}
	for i := range refLink {
		if fb.linkRate[i] != refLink[i] {
			t.Logf("seed %d: link %d rate %v, oracle %v", seed, i, fb.linkRate[i], refLink[i])
			ok = false
		}
		if fb.externalRate[i] != refExt[i] {
			t.Logf("seed %d: link %d external %v, oracle %v", seed, i, fb.externalRate[i], refExt[i])
			ok = false
		}
	}
	return ok
}

// TestQuickAllocatorMatchesOracle fuzzes random topologies, flow sets
// (pinned routes, rate caps, strict-priority fixed rates, external
// marking, coflow groups), and churn (cancels, capacity changes, time
// advancing past completions), asserting after every mutation batch that
// the optimized allocator commits exactly the rates the retired
// map-based allocator would have. Every round also starts, cancels and
// restarts the same flows at one instant, so flow sets recur and the
// comparison covers allocations answered by the memo as well as solved
// ones.
func TestQuickAllocatorMatchesOracle(t *testing.T) {
	var hits, misses int
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := sim.New()
		n := NewNetwork()
		nNodes := 3 + rng.Intn(6)
		nodes := make([]NodeID, nNodes)
		for i := range nodes {
			nodes[i] = n.AddNode(fmt.Sprintf("n%d", i))
		}
		randCap := func() float64 { return (1 + 99*rng.Float64()) * gbps }
		for i := range nodes {
			n.AddLink(nodes[i], nodes[(i+1)%nNodes], randCap())
		}
		for e := rng.Intn(2 * nNodes); e > 0; e-- {
			a, b := rng.Intn(nNodes), rng.Intn(nNodes)
			if a != b {
				n.AddLink(nodes[a], nodes[b], randCap())
			}
		}
		walk := func() []LinkID {
			at := nodes[rng.Intn(nNodes)]
			seen := map[NodeID]bool{at: true}
			var route []LinkID
			for hops := 1 + rng.Intn(4); hops > 0; hops-- {
				var outs []LinkID
				for i := 0; i < n.NumLinks(); i++ {
					l := n.Link(LinkID(i))
					if l.From == at && !seen[l.To] {
						outs = append(outs, l.ID)
					}
				}
				if len(outs) == 0 {
					break
				}
				pick := n.Link(outs[rng.Intn(len(outs))])
				route = append(route, pick.ID)
				at = pick.To
				seen[at] = true
			}
			return route
		}
		fb := NewFabric(s, n)
		defer func() { hits, misses = hits+fb.MemoHits, misses+fb.MemoMisses }()
		ok := true
		s.Go("fuzz", func(p *sim.Proc) {
			groups := []*Group{fb.NewGroup(), fb.NewGroup(), fb.NewGroup()}
			var flows []*Flow
			var started []FlowOpts
			startBatch := func(k int) {
				for ; k > 0; k-- {
					route := walk()
					if len(route) == 0 {
						continue
					}
					o := FlowOpts{
						Src: n.Link(route[0]).From, Dst: n.Link(route[len(route)-1]).To,
						Route: route, Bytes: float64(1+rng.Intn(100)) * 1e6,
					}
					switch rng.Intn(5) {
					case 0:
						o.MaxRate = (1 + 30*rng.Float64()) * gbps
					case 1:
						o.FixedRate = (1 + 30*rng.Float64()) * gbps
						o.External = rng.Intn(2) == 0
					case 2:
						o.Group = groups[rng.Intn(len(groups))]
					}
					if rng.Intn(6) == 0 {
						o.Bytes = 0 // endless
					}
					flows = append(flows, fb.StartFlow(o))
					started = append(started, o)
				}
			}
			// recur replays up to three earlier flows twice: with them, without
			// them (the set it started from) and with them again.
			recur := func() {
				var again []*Flow
				for pass := 0; pass < 2 && len(started) > 0; pass++ {
					for i := 0; i < 3 && i < len(started); i++ {
						again = append(again, fb.StartFlow(started[(pass+i)%len(started)]))
					}
					ok = checkOracle(t, fb, seed) && ok
					for _, fl := range again {
						fb.CancelFlow(fl)
					}
					again = again[:0]
					ok = checkOracle(t, fb, seed) && ok
				}
			}
			// Same-instant batch, checked once for the whole batch.
			startBatch(1 + rng.Intn(10))
			ok = checkOracle(t, fb, seed) && ok
			// Churn rounds: advance time (letting completions fire), then
			// mutate — cancels, capacity changes, more same-instant starts.
			for round := 0; round < 4 && ok; round++ {
				p.Sleep(time.Duration(rng.Intn(2000)) * time.Microsecond)
				switch rng.Intn(3) {
				case 0:
					for i := 0; i < len(flows) && i < 3; i++ {
						fb.CancelFlow(flows[rng.Intn(len(flows))])
					}
				case 1:
					l := LinkID(rng.Intn(n.NumLinks()))
					fb.SetLinkCapacity(l, rng.Float64()*100*gbps)
				case 2:
					startBatch(1 + rng.Intn(5))
				}
				ok = checkOracle(t, fb, seed) && ok
				recur()
			}
			for _, fl := range flows {
				fb.CancelFlow(fl)
			}
		})
		if err := s.Run(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
	if hits == 0 || misses == 0 {
		t.Errorf("fuzz saw %d memo hits and %d misses; it must compare both kinds with the oracle", hits, misses)
	}
	t.Logf("%d memo hits, %d misses", hits, misses)
}

// TestOracleGroupAndPriorityMix pins the trickiest oracle case: a flow
// that is both strict-priority and grouped, where the retired allocator
// reads the group minimum through a map miss (rate 0). The optimized
// allocator must reproduce that behaviour bit-for-bit, quirk included.
func TestOracleGroupAndPriorityMix(t *testing.T) {
	s := sim.New()
	n, a, b, c := lineNet(100*gbps, 30*gbps)
	_ = b
	fb := NewFabric(s, n)
	s.Go("app", func(p *sim.Proc) {
		g := fb.NewGroup()
		fb.StartFlow(FlowOpts{Src: a, Dst: c, Bytes: 1e9, Group: g})
		fb.StartFlow(FlowOpts{Src: a, Dst: c, Bytes: 0, FixedRate: 20 * gbps, Group: g})
		fb.StartFlow(FlowOpts{Src: a, Dst: c, Bytes: 1e9})
		if !checkOracle(t, fb, 0) {
			t.Error("optimized allocator diverges from oracle on priority+group mix")
		}
		fb.SetLinkCapacity(LinkID(0), 50*gbps)
		if !checkOracle(t, fb, 0) {
			t.Error("divergence after capacity change")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}
