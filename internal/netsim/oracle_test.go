package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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
	fb.settleSums()
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
// marking), and churn (cancels, capacity changes, time
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
					switch rng.Intn(4) {
					case 0:
						o.MaxRate = (1 + 30*rng.Float64()) * gbps
					case 1:
						o.FixedRate = (1 + 30*rng.Float64()) * gbps
						o.External = rng.Intn(2) == 0
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

// TestSolveFillsOncePlusPriority pins the shape of solve on a mixed flow
// set: one water-fill per recompute, two while a strict-priority flow is
// active — and the rates of both shapes against the oracle.
func TestSolveFillsOncePlusPriority(t *testing.T) {
	s := sim.New()
	n, a, b, c := lineNet(100*gbps, 30*gbps)
	fb := NewFabric(s, n)
	check := func(what string, wantFills int) {
		t.Helper()
		fb.memo.epoch++ // a fresh key: this recompute is solved, not replayed
		fb.dirty = true
		before := fb.Fills
		if !checkOracle(t, fb, 0) {
			t.Errorf("%s: optimized allocator diverges from oracle", what)
		}
		if got := fb.Fills - before; got != wantFills {
			t.Errorf("%s: %d fills in one recompute, want %d", what, got, wantFills)
		}
	}
	s.Go("app", func(p *sim.Proc) {
		fb.StartFlow(FlowOpts{Src: a, Dst: c, Bytes: 1e9})
		fb.StartFlow(FlowOpts{Src: a, Dst: b, Bytes: 1e9, MaxRate: 10 * gbps})
		fb.StartFlow(FlowOpts{Src: a, Dst: c, Bytes: 1e9})
		check("fair flows only", 1)
		prio := fb.StartFlow(FlowOpts{Src: a, Dst: c, FixedRate: 20 * gbps, External: true})
		prio2 := fb.StartFlow(FlowOpts{Src: a, Dst: b, FixedRate: 95 * gbps})
		check("two priority flows over three fair ones", 2)
		fb.SetLinkCapacity(LinkID(0), 50*gbps)
		check("after a capacity change", 2)
		fb.CancelFlow(prio)
		check("one priority flow left", 2)
		fb.CancelFlow(prio2)
		check("priority flows gone", 1)
		for _, fl := range slices.Clone(fb.flows) {
			fb.CancelFlow(fl)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// What follows preserves the fabric's original max-min allocator — the
// straightforward map-based implementation that allocated fresh scratch
// on every call — as a differential-testing oracle. The optimized
// allocator in fabric.go must produce bit-identical rates: determinism
// demands identical float accumulation order, so the equivalence tests
// compare with ==, not within an epsilon.
//
// One deliberate deviation from the historical code: frozen-flow
// background load is subtracted from link headroom in flow-ID order
// rather than map-iteration order. The original map iteration made that
// float accumulation order-nondeterministic; flow-ID order is the
// canonical order the optimized allocator uses.
//
// referenceAllocate mutates nothing: it reads the fabric's current flow
// set and returns the would-be allocation.

// referenceAllocate computes max-min fair rates with rate caps and strict
// priority using the retired algorithm. It returns the per-flow rates
// plus the per-link aggregate and external rate accumulations.
func (fb *Fabric) referenceAllocate() (map[*Flow]float64, []float64, []float64) {
	linkRate := make([]float64, fb.net.NumLinks())
	externalRate := make([]float64, fb.net.NumLinks())
	result := make(map[*Flow]float64, len(fb.flows))
	if len(fb.flows) == 0 {
		return result, linkRate, externalRate
	}
	// Committed in flow-ID order: link-rate sums are float accumulations,
	// and any other order would make their low-order bits diverge from
	// the optimized allocator's.
	ordered := append([]*Flow(nil), fb.flows...)
	sortFlowsByID(ordered)
	frozen := make(map[*Flow]float64)
	hasPriority := false
	for _, fl := range ordered {
		if fl.priority {
			hasPriority = true
			break
		}
	}
	if hasPriority {
		prio := fb.referenceWaterfill(ordered, frozen, func(fl *Flow) bool { return fl.priority })
		for fl, r := range prio {
			frozen[fl] = r
		}
	}
	rates := fb.referenceWaterfill(ordered, frozen, func(fl *Flow) bool { return true })
	for _, fl := range ordered {
		r, ok := frozen[fl]
		if !ok {
			r = rates[fl]
		}
		result[fl] = r
		for _, l := range fl.Route {
			linkRate[l] += r
			if fl.external {
				externalRate[l] += r
			}
		}
	}
	return result, linkRate, externalRate
}

// referenceWaterfill is the retired progressive-filling pass: classic
// water-fill over the non-frozen flows, treating frozen flows as fixed
// background load, with per-call map/slice scratch.
func (fb *Fabric) referenceWaterfill(ordered []*Flow, frozen map[*Flow]float64, include func(*Flow) bool) map[*Flow]float64 {
	remCap := make([]float64, fb.net.NumLinks())
	nActive := make([]int, fb.net.NumLinks())
	touched := make([]LinkID, 0, 64)
	mark := make([]bool, fb.net.NumLinks())

	active := make([]*Flow, 0, len(ordered))
	for _, fl := range ordered {
		if _, ok := frozen[fl]; ok {
			continue
		}
		if !include(fl) {
			continue
		}
		active = append(active, fl)
	}

	for _, l := range fb.net.links {
		remCap[l.ID] = l.Capacity
	}
	for _, fl := range ordered {
		r, ok := frozen[fl]
		if !ok {
			continue
		}
		for _, l := range fl.Route {
			remCap[l] -= r
			if remCap[l] < 0 {
				remCap[l] = 0
			}
		}
	}
	for _, fl := range active {
		for _, l := range fl.Route {
			nActive[l]++
			if !mark[l] {
				mark[l] = true
				touched = append(touched, l)
			}
		}
	}

	rates := make(map[*Flow]float64, len(active))
	level := make(map[*Flow]float64, len(active))
	frozenHere := make(map[*Flow]bool, len(active))
	remaining := len(active)

	for remaining > 0 {
		inc := math.Inf(1)
		for _, l := range touched {
			if nActive[l] > 0 {
				if h := remCap[l] / float64(nActive[l]); h < inc {
					inc = h
				}
			}
		}
		for _, fl := range active {
			if frozenHere[fl] || fl.maxRate <= 0 {
				continue
			}
			if gap := fl.maxRate - level[fl]; gap < inc {
				inc = gap
			}
		}
		if math.IsInf(inc, 1) {
			for _, fl := range active {
				if !frozenHere[fl] {
					rates[fl] = level[fl]
				}
			}
			break
		}
		if inc < 0 {
			inc = 0
		}
		for _, fl := range active {
			if !frozenHere[fl] {
				level[fl] += inc
			}
		}
		for _, l := range touched {
			remCap[l] -= inc * float64(nActive[l])
			if remCap[l] < 0 {
				remCap[l] = 0
			}
		}
		capEps := 1e-6 // bytes/sec; far below any real link scale
		for _, fl := range active {
			if frozenHere[fl] {
				continue
			}
			stop := fl.maxRate > 0 && level[fl] >= fl.maxRate-capEps
			if !stop {
				for _, l := range fl.Route {
					if remCap[l] <= capEps {
						stop = true
						break
					}
				}
			}
			if stop {
				frozenHere[fl] = true
				rates[fl] = level[fl]
				remaining--
				for _, l := range fl.Route {
					nActive[l]--
				}
			}
		}
	}
	return rates
}

// sortFlowsByID sorts flows by ascending ID.
func sortFlowsByID(fs []*Flow) {
	slices.SortFunc(fs, func(a, b *Flow) int { return a.ID - b.ID })
}
