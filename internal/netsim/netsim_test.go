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
	"mccs/internal/trace"
)

const gbps = 125e6 // 1 Gbit/s in bytes/sec

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// doneEvent is the tests' FlowOpts.OnDone: an event the flow's completion
// signals, for a process to wait on.
type doneEvent struct {
	s *sim.Scheduler
	sim.Event
}

func (d *doneEvent) OnEvent(uint64) { d.Signal(d.s) }

// startFlow starts a flow whose completion the returned event signals.
func startFlow(fb *Fabric, o FlowOpts) (*Flow, *doneEvent) {
	done := &doneEvent{s: fb.s}
	o.OnDone = done
	return fb.StartFlow(o), done
}

// lineNet builds a -> b -> c with the given capacities.
func lineNet(capAB, capBC float64) (*Network, NodeID, NodeID, NodeID) {
	n := NewNetwork()
	a, b, c := n.AddNode("a"), n.AddNode("b"), n.AddNode("c")
	n.AddDuplex(a, b, capAB)
	n.AddDuplex(b, c, capBC)
	return n, a, b, c
}

// diamondNet builds src -> {s1,s2} -> dst, every link at cap.
func diamondNet(cap float64) (*Network, NodeID, NodeID) {
	n := NewNetwork()
	src, s1, s2, dst := n.AddNode("src"), n.AddNode("s1"), n.AddNode("s2"), n.AddNode("dst")
	n.AddDuplex(src, s1, cap)
	n.AddDuplex(src, s2, cap)
	n.AddDuplex(s1, dst, cap)
	n.AddDuplex(s2, dst, cap)
	return n, src, dst
}

func TestSingleFlowCompletionTime(t *testing.T) {
	s := sim.New()
	n, a, _, c := lineNet(100*gbps, 100*gbps)
	fb := NewFabric(s, n)
	var doneAt sim.Time
	s.Go("app", func(p *sim.Proc) {
		fl, done := startFlow(fb, FlowOpts{Src: a, Dst: c, Bytes: 125e6}) // 125 MB at 12.5 GB/s = 10 ms
		if got := fl.Rate(); !almostEq(got, 100*gbps, 1) {
			t.Errorf("rate = %g, want %g", got, 100*gbps)
		}
		done.Wait(p)
		doneAt = p.Now()
		if !fl.finished {
			t.Error("flow not marked finished")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := sim.Time(10 * time.Millisecond)
	if d := doneAt.Sub(want); d < -time.Microsecond || d > time.Microsecond {
		t.Errorf("completion at %v, want ~%v", doneAt, want)
	}
}

func TestTwoFlowsShareFairly(t *testing.T) {
	s := sim.New()
	n, a, _, c := lineNet(100*gbps, 100*gbps)
	fb := NewFabric(s, n)
	s.Go("app", func(p *sim.Proc) {
		f1, done1 := startFlow(fb, FlowOpts{Src: a, Dst: c, Bytes: 1e9})
		f2, done2 := startFlow(fb, FlowOpts{Src: a, Dst: c, Bytes: 1e9})
		if !almostEq(f1.Rate(), 50*gbps, 1) || !almostEq(f2.Rate(), 50*gbps, 1) {
			t.Errorf("rates = %g, %g, want %g each", f1.Rate(), f2.Rate(), 50*gbps)
		}
		done1.Wait(p)
		done2.Wait(p)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestFlowFinishReallocatesBandwidth(t *testing.T) {
	s := sim.New()
	n, a, _, c := lineNet(100*gbps, 100*gbps)
	fb := NewFabric(s, n)
	var shortDone, longDone sim.Time
	s.Go("app", func(p *sim.Proc) {
		_, short := startFlow(fb, FlowOpts{Src: a, Dst: c, Bytes: 62.5e6}) // 62.5 MB
		_, long := startFlow(fb, FlowOpts{Src: a, Dst: c, Bytes: 187.5e6}) // 187.5 MB
		short.Wait(p)
		shortDone = p.Now()
		long.Wait(p)
		longDone = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// Both at 6.25 GB/s: short (62.5 MB) finishes at 10 ms with long at
	// 62.5 MB done; long's remaining 125 MB then runs at 12.5 GB/s for
	// another 10 ms => 20 ms total.
	if d := shortDone.Sub(sim.Time(10 * time.Millisecond)); math.Abs(d.Seconds()) > 1e-5 {
		t.Errorf("short done at %v, want 10ms", shortDone)
	}
	if d := longDone.Sub(sim.Time(20 * time.Millisecond)); math.Abs(d.Seconds()) > 1e-5 {
		t.Errorf("long done at %v, want 20ms", longDone)
	}
}

func TestMaxMinUnequalBottlenecks(t *testing.T) {
	// a->b at 100G shared by two flows; one continues b->c at 30G.
	// Max-min: constrained flow gets 30G, the other gets 70G.
	s := sim.New()
	n, a, b, c := lineNet(100*gbps, 30*gbps)
	fb := NewFabric(s, n)
	s.Go("app", func(p *sim.Proc) {
		f1 := fb.StartFlow(FlowOpts{Src: a, Dst: c, Bytes: 1e9})
		f2 := fb.StartFlow(FlowOpts{Src: a, Dst: b, Bytes: 1e9})
		if !almostEq(f1.Rate(), 30*gbps, 1) {
			t.Errorf("bottlenecked flow rate = %g, want %g", f1.Rate(), 30*gbps)
		}
		if !almostEq(f2.Rate(), 70*gbps, 1) {
			t.Errorf("free flow rate = %g, want %g", f2.Rate(), 70*gbps)
		}
		fb.CancelFlow(f1)
		fb.CancelFlow(f2)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMaxRateCapFairShare(t *testing.T) {
	// A fair-share cap only binds above the fair share: a 75G-capped flow
	// and an uncapped flow on a 100G link still split 50/50, while a
	// 30G-capped flow frees capacity for the other.
	s := sim.New()
	n, a, _, c := lineNet(100*gbps, 100*gbps)
	fb := NewFabric(s, n)
	s.Go("app", func(p *sim.Proc) {
		f1 := fb.StartFlow(FlowOpts{Src: a, Dst: c, Bytes: 1e12, MaxRate: 75 * gbps})
		f2 := fb.StartFlow(FlowOpts{Src: a, Dst: c, Bytes: 1e12})
		if !almostEq(f1.Rate(), 50*gbps, 1e3) || !almostEq(f2.Rate(), 50*gbps, 1e3) {
			t.Errorf("rates = %g, %g, want 50/50", f1.Rate(), f2.Rate())
		}
		f3 := fb.StartFlow(FlowOpts{Src: a, Dst: c, Bytes: 1e12, MaxRate: 10 * gbps})
		if !almostEq(f3.Rate(), 10*gbps, 1e3) {
			t.Errorf("capped rate = %g, want %g", f3.Rate(), 10*gbps)
		}
		if !almostEq(f1.Rate(), 45*gbps, 1e3) || !almostEq(f2.Rate(), 45*gbps, 1e3) {
			t.Errorf("rates = %g, %g, want 45/45 around 10G cap", f1.Rate(), f2.Rate())
		}
		for _, fl := range []*Flow{f1, f2, f3} {
			fb.CancelFlow(fl)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestFixedRatePriorityFlow(t *testing.T) {
	// A 75 Gbps strict-priority background flow on a 100G link leaves 25G
	// for a second flow — the Fig. 7 scenario.
	s := sim.New()
	n, a, _, c := lineNet(100*gbps, 100*gbps)
	fb := NewFabric(s, n)
	s.Go("app", func(p *sim.Proc) {
		bg := fb.StartFlow(FlowOpts{Src: a, Dst: c, Bytes: 0, FixedRate: 75 * gbps}) // endless
		fg, fgDone := startFlow(fb, FlowOpts{Src: a, Dst: c, Bytes: 1e9})
		if !almostEq(bg.Rate(), 75*gbps, 1e3) {
			t.Errorf("bg rate = %g, want %g", bg.Rate(), 75*gbps)
		}
		if !almostEq(fg.Rate(), 25*gbps, 1e3) {
			t.Errorf("fg rate = %g, want %g", fg.Rate(), 25*gbps)
		}
		fb.CancelFlow(bg)
		if !almostEq(fg.Rate(), 100*gbps, 1e3) {
			t.Errorf("fg rate after bg cancel = %g, want %g", fg.Rate(), 100*gbps)
		}
		fgDone.Wait(p)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDiamondPathsAndECMP(t *testing.T) {
	n, src, dst := diamondNet(100 * gbps)
	paths := n.PathsBetween(src, dst)
	if len(paths) != 2 {
		t.Fatalf("got %d shortest paths, want 2", len(paths))
	}
	for _, pth := range paths {
		if len(pth) != 2 {
			t.Errorf("path length %d, want 2 hops", len(pth))
		}
		if err := n.ValidateRoute(src, dst, pth); err != nil {
			t.Errorf("enumerated path invalid: %v", err)
		}
	}
	// ECMP must be deterministic and must spread labels across both paths.
	seen := map[int]int{}
	for label := uint64(0); label < 64; label++ {
		i := ECMPIndex(src, dst, label, 2)
		if j := ECMPIndex(src, dst, label, 2); i != j {
			t.Fatal("ECMPIndex not deterministic")
		}
		seen[i]++
	}
	if seen[0] == 0 || seen[1] == 0 {
		t.Errorf("ECMP never used one path: %v", seen)
	}
}

func TestExplicitRoutePinning(t *testing.T) {
	s := sim.New()
	n, src, dst := diamondNet(100 * gbps)
	fb := NewFabric(s, n)
	paths := n.PathsBetween(src, dst)
	s.Go("app", func(p *sim.Proc) {
		// Pin both flows to different paths: each gets full capacity.
		f1 := fb.StartFlow(FlowOpts{Src: src, Dst: dst, Bytes: 1e9, Route: paths[0]})
		f2 := fb.StartFlow(FlowOpts{Src: src, Dst: dst, Bytes: 1e9, Route: paths[1]})
		if !almostEq(f1.Rate(), 100*gbps, 1) || !almostEq(f2.Rate(), 100*gbps, 1) {
			t.Errorf("pinned rates = %g, %g, want full capacity", f1.Rate(), f2.Rate())
		}
		// Pin both to the same path: they halve.
		f3 := fb.StartFlow(FlowOpts{Src: src, Dst: dst, Bytes: 1e9, Route: paths[0]})
		if !almostEq(f1.Rate(), 50*gbps, 1) || !almostEq(f3.Rate(), 50*gbps, 1) {
			t.Errorf("collided rates = %g, %g, want halved", f1.Rate(), f3.Rate())
		}
		for _, fl := range []*Flow{f1, f2, f3} {
			fb.CancelFlow(fl)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRouteErrors(t *testing.T) {
	n, src, dst := diamondNet(100 * gbps)
	if err := n.ValidateRoute(src, dst, nil); err == nil {
		t.Error("empty route to different node accepted")
	}
	if err := n.ValidateRoute(src, src, nil); err != nil {
		t.Errorf("empty route to self rejected: %v", err)
	}
	paths := n.PathsBetween(src, dst)
	bad := append([]LinkID(nil), paths[0]...)
	bad[0], bad[1] = bad[1], bad[0]
	if err := n.ValidateRoute(src, dst, bad); err == nil {
		t.Error("disconnected route accepted")
	}
	if err := n.ValidateRoute(src, dst, paths[0][:1]); err == nil {
		t.Error("truncated route accepted")
	}
}

func TestTransferredAndSync(t *testing.T) {
	s := sim.New()
	n, a, _, c := lineNet(100*gbps, 100*gbps)
	fb := NewFabric(s, n)
	s.Go("app", func(p *sim.Proc) {
		fl := fb.StartFlow(FlowOpts{Src: a, Dst: c, Bytes: 1e9})
		p.Sleep(10 * time.Millisecond)
		fb.Sync()
		want := 100 * gbps * 0.010
		if !almostEq(fl.Transferred(), want, want*1e-6) {
			t.Errorf("transferred = %g, want %g", fl.Transferred(), want)
		}
		fb.CancelFlow(fl)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestLinkRateAccounting(t *testing.T) {
	s := sim.New()
	n, a, _, c := lineNet(100*gbps, 100*gbps)
	fb := NewFabric(s, n)
	s.Go("app", func(p *sim.Proc) {
		fl := fb.StartFlow(FlowOpts{Src: a, Dst: c, Bytes: 1e9})
		var loaded int
		for i := 0; i < n.NumLinks(); i++ {
			u := fb.LinkUtilization(LinkID(i))
			if u > 0.999 {
				loaded++
			}
		}
		if loaded != 2 {
			t.Errorf("loaded links = %d, want 2 (a->b, b->c)", loaded)
		}
		fb.CancelFlow(fl)
		for i := 0; i < n.NumLinks(); i++ {
			if fb.LinkRate(LinkID(i)) != 0 {
				t.Errorf("link %d rate nonzero after cancel", i)
			}
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// Property: for random flow sets on a diamond, the allocation never
// oversubscribes a link, and every uncapped flow is bottlenecked somewhere
// (max-min work conservation).
func TestQuickMaxMinInvariants(t *testing.T) {
	f := func(seed int64, nf uint8) bool {
		nFlows := int(nf%12) + 1
		rng := rand.New(rand.NewSource(seed))
		s := sim.New()
		n, src, dst := diamondNet(100 * gbps)
		fb := NewFabric(s, n)
		ok := true
		s.Go("app", func(p *sim.Proc) {
			var flows []*Flow
			for i := 0; i < nFlows; i++ {
				o := FlowOpts{Src: src, Dst: dst, Bytes: 1e12, Label: rng.Uint64()}
				if rng.Intn(3) == 0 {
					o.MaxRate = (1 + 50*rng.Float64()) * gbps
				}
				flows = append(flows, fb.StartFlow(o))
			}
			// No oversubscription.
			for i := 0; i < n.NumLinks(); i++ {
				if fb.LinkUtilization(LinkID(i)) > 1+1e-9 {
					ok = false
				}
			}
			// Work conservation: every flow is either at its cap or
			// crosses a saturated link.
			for _, fl := range flows {
				if fl.maxRate > 0 && almostEq(fl.Rate(), fl.maxRate, 1) {
					continue
				}
				saturated := false
				for _, l := range fl.Route {
					if fb.LinkUtilization(l) > 1-1e-6 {
						saturated = true
						break
					}
				}
				if !saturated {
					ok = false
				}
			}
			for _, fl := range flows {
				fb.CancelFlow(fl)
			}
		})
		if err := s.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: on arbitrary random fabrics with arbitrary pinned routes, the
// allocation is max-min fair. Two conditions certify it:
//
//  1. feasibility — no link carries more than its capacity;
//  2. bottleneck certificate — every uncapped flow crosses at least one
//     saturated link on which its rate is maximal. Raising such a flow
//     would then necessarily lower a flow with a rate no higher than its
//     own, which is exactly the max-min optimality condition.
//
// Tolerances are relative to link scale (mirroring the byteEps guard the
// fabric itself uses for completion) so the test does not trip over float
// accumulation on many-flow links.
func TestQuickMaxMinRandomFabrics(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := sim.New()
		n := NewNetwork()
		nNodes := 3 + rng.Intn(6)
		nodes := make([]NodeID, nNodes)
		for i := range nodes {
			nodes[i] = n.AddNode(fmt.Sprintf("n%d", i))
		}
		// Ring backbone guarantees every random walk can move, then
		// extra chords for path diversity. Random capacities span two
		// orders of magnitude to exercise unequal bottlenecks.
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
		// Random simple-path routes by bounded random walk.
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
		ok := true
		s.Go("app", func(p *sim.Proc) {
			var flows []*Flow
			for i := 1 + rng.Intn(12); i > 0; i-- {
				route := walk()
				if len(route) == 0 {
					continue
				}
				o := FlowOpts{
					Src: n.Link(route[0]).From, Dst: n.Link(route[len(route)-1]).To,
					Route: route, Bytes: 1e15,
				}
				if rng.Intn(4) == 0 {
					o.MaxRate = (1 + 30*rng.Float64()) * gbps
				}
				flows = append(flows, fb.StartFlow(o))
			}
			crossing := func(l LinkID) (sum float64, fs []*Flow) {
				for _, fl := range flows {
					for _, rl := range fl.Route {
						if rl == l {
							sum += fl.Rate()
							fs = append(fs, fl)
							break
						}
					}
				}
				return sum, fs
			}
			for i := 0; i < n.NumLinks(); i++ {
				l := n.Link(LinkID(i))
				eps := 1e-6 * l.Capacity
				if sum, _ := crossing(l.ID); sum > l.Capacity+eps {
					t.Logf("seed %d: link %d over capacity: %g > %g", seed, i, sum, l.Capacity)
					ok = false
				}
			}
			for _, fl := range flows {
				if fl.maxRate > 0 && almostEq(fl.Rate(), fl.maxRate, 1e-6*fl.maxRate+1) {
					continue
				}
				certified := false
				for _, l := range fl.Route {
					link := n.Link(l)
					eps := 1e-6 * link.Capacity
					sum, fs := crossing(l)
					if sum < link.Capacity-eps {
						continue
					}
					maximal := true
					for _, g := range fs {
						if g.Rate() > fl.Rate()+eps {
							maximal = false
							break
						}
					}
					if maximal {
						certified = true
						break
					}
				}
				if !certified {
					t.Logf("seed %d: flow %d rate %g has no bottleneck link", seed, fl.ID, fl.Rate())
					ok = false
				}
			}
			for _, fl := range flows {
				fb.CancelFlow(fl)
			}
		})
		if err := s.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: total delivered bytes equal demand for every completed flow,
// regardless of arrival jitter.
func TestQuickByteConservation(t *testing.T) {
	f := func(seed int64, nf uint8) bool {
		nFlows := int(nf%8) + 1
		rng := rand.New(rand.NewSource(seed))
		s := sim.New()
		n, a, _, c := lineNet(100*gbps, 50*gbps)
		fb := NewFabric(s, n)
		good := true
		s.Go("app", func(p *sim.Proc) {
			var flows []*Flow
			var dones []*doneEvent
			var sizes []float64
			for i := 0; i < nFlows; i++ {
				p.Sleep(time.Duration(rng.Intn(1000)) * time.Microsecond)
				size := float64(1+rng.Intn(100)) * 1e6
				sizes = append(sizes, size)
				fl, done := startFlow(fb, FlowOpts{Src: a, Dst: c, Bytes: size, Label: uint64(i)})
				flows, dones = append(flows, fl), append(dones, done)
			}
			for i, fl := range flows {
				dones[i].Wait(p)
				if !almostEq(fl.Transferred(), sizes[i], 1) {
					good = false
				}
			}
		})
		if err := s.Run(); err != nil {
			return false
		}
		return good && fb.ActiveFlows() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSetLinkCapacity(t *testing.T) {
	s := sim.New()
	n, a, _, c := lineNet(100*gbps, 100*gbps)
	fb := NewFabric(s, n)
	s.Go("app", func(p *sim.Proc) {
		fl := fb.StartFlow(FlowOpts{Src: a, Dst: c, Bytes: 1e12})
		if !almostEq(fl.Rate(), 100*gbps, 1) {
			t.Errorf("initial rate = %g", fl.Rate())
		}
		// Degrade the first link to 10G: the flow re-rates immediately.
		fb.SetLinkCapacity(LinkID(0), 10*gbps)
		if !almostEq(fl.Rate(), 10*gbps, 1) {
			t.Errorf("degraded rate = %g, want %g", fl.Rate(), 10*gbps)
		}
		// Restore.
		fb.SetLinkCapacity(LinkID(0), 100*gbps)
		if !almostEq(fl.Rate(), 100*gbps, 1) {
			t.Errorf("restored rate = %g", fl.Rate())
		}
		fb.CancelFlow(fl)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestExternalRateAccounting(t *testing.T) {
	s := sim.New()
	n, a, _, c := lineNet(100*gbps, 100*gbps)
	fb := NewFabric(s, n)
	s.Go("app", func(p *sim.Proc) {
		managed := fb.StartFlow(FlowOpts{Src: a, Dst: c, Bytes: 1e12})
		ext := fb.StartFlow(FlowOpts{Src: a, Dst: c, Bytes: 0, FixedRate: 30 * gbps, External: true})
		_ = managed
		for i := 0; i < n.NumLinks(); i++ {
			l := LinkID(i)
			if fb.LinkRate(l) > 0 {
				if !almostEq(fb.ExternalRate(l), 30*gbps, 1e3) {
					t.Errorf("link %d external rate = %g, want %g", i, fb.ExternalRate(l), 30*gbps)
				}
			} else if fb.ExternalRate(l) != 0 {
				t.Errorf("idle link %d has external rate", i)
			}
		}
		fb.CancelFlow(ext)
		for i := 0; i < n.NumLinks(); i++ {
			if fb.ExternalRate(LinkID(i)) != 0 {
				t.Errorf("external rate sticks after cancel")
			}
		}
		fb.CancelFlow(managed)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// On a fabric much larger than its flows' routes, the fabric zeroes the
// link sums only on the routes (and on a departing flow's route) and seeds
// the water-fill only on the links its flows cross. Neither may leave a
// stale value behind: a route whose flows finished reads zero on every link
// while flows on a disjoint route keep running, and a capacity changed
// between fills — on a link in use or on one idle since an earlier fill —
// is the capacity the next fill shares.
func TestFabricResetsWhatFlowsLeft(t *testing.T) {
	s := sim.New()
	n, a, _, c := lineNet(100*gbps, 100*gbps)
	// Idle links between two extra nodes make the routes a small share of
	// the fabric.
	x, y := n.AddNode("x"), n.AddNode("y")
	for i := 0; i < 32; i++ {
		n.AddDuplex(x, y, gbps)
	}
	fb := NewFabric(s, n)
	fwd, rev := []LinkID{0, 2}, []LinkID{3, 1} // a->b->c and c->b->a
	s.Go("app", func(p *sim.Proc) {
		_, done := startFlow(fb, FlowOpts{Src: a, Dst: c, Route: fwd, Bytes: 1e6})
		fb.StartFlow(FlowOpts{Src: a, Dst: c, Route: fwd, Bytes: 1e5, FixedRate: 10 * gbps, External: true})
		stay := fb.StartFlow(FlowOpts{Src: c, Dst: a, Route: rev})
		fb.StartFlow(FlowOpts{Src: c, Dst: a, Route: rev, FixedRate: 20 * gbps, External: true})
		for _, l := range fwd {
			if fb.LinkRate(l) != 100*gbps || fb.ExternalRate(l) != 10*gbps {
				t.Errorf("busy link %d: rate %g, external %g", l, fb.LinkRate(l), fb.ExternalRate(l))
			}
		}
		done.Wait(p)
		for _, l := range fwd {
			if fb.LinkRate(l) != 0 || fb.ExternalRate(l) != 0 {
				t.Errorf("link %d after its flows finished: rate %g, external %g, want 0", l, fb.LinkRate(l), fb.ExternalRate(l))
			}
		}
		for _, l := range rev {
			if fb.LinkRate(l) != 100*gbps || fb.ExternalRate(l) != 20*gbps {
				t.Errorf("link %d still carrying flows: rate %g, external %g", l, fb.LinkRate(l), fb.ExternalRate(l))
			}
		}
		// A link in use: the running flow gets the new residual at once.
		fb.SetLinkCapacity(rev[0], 50*gbps)
		if got := stay.Rate(); got != 30*gbps {
			t.Errorf("after degrading link %d: rate %g, want %g", rev[0], got, 30*gbps)
		}
		// An idle link, last filled at 100G: a new flow across it sees 40G.
		fb.SetLinkCapacity(fwd[1], 40*gbps)
		again := fb.StartFlow(FlowOpts{Src: a, Dst: c, Route: fwd})
		if got := again.Rate(); got != 40*gbps {
			t.Errorf("flow over degraded idle link %d: rate %g, want %g", fwd[1], got, 40*gbps)
		}
		if got := fb.LinkRate(fwd[0]); got != 40*gbps {
			t.Errorf("link %d: rate %g, want %g", fwd[0], got, 40*gbps)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestLinkSumsOnRead checks that the link sums cost nothing until read: an
// allocation nobody reads after leaves linkRate and externalRate as they
// were, the first read sums them to exactly what the oracle does, every
// link reads 0 once its flows have left (also when they leave before
// anyone read their sums), and a traced fabric's rate samples quote the
// sums LinkRate and ExternalRate return at the same instant.
func TestLinkSumsOnRead(t *testing.T) {
	for _, traced := range []bool{false, true} {
		s := sim.New()
		if traced {
			trace.Attach(s, trace.NewRecorder(trace.LevelFull, 0))
		}
		n, a, _, c := lineNet(100*gbps, 40*gbps)
		fb := NewFabric(s, n)
		zero := func() bool {
			for l := range fb.linkRate {
				if fb.linkRate[l] != 0 || fb.externalRate[l] != 0 {
					return false
				}
			}
			return true
		}
		// samplesMatch compares every flow's latest rate sample with the
		// sums read now.
		samplesMatch := func(when string) {
			for _, fl := range fb.flows {
				smp := fl.samples[len(fl.samples)-1]
				if b := LinkID(smp.Bottleneck); b >= 0 && (smp.LinkBps != fb.LinkRate(b) || smp.ExtBps != fb.ExternalRate(b)) {
					t.Errorf("%s: flow %d sampled link %d at %g (external %g), LinkRate reads %g (%g)",
						when, fl.ID, b, smp.LinkBps, smp.ExtBps, fb.LinkRate(b), fb.ExternalRate(b))
				}
			}
		}
		s.Go("app", func(p *sim.Proc) {
			_, done := startFlow(fb, FlowOpts{Src: a, Dst: c, Bytes: 1e6})
			fb.StartFlow(FlowOpts{Src: a, Dst: c, Bytes: 3e6, External: true})
			fb.StartFlow(FlowOpts{Src: c, Dst: a, Bytes: 2e6, FixedRate: 10 * gbps})
			fb.flush()
			if fb.Recomputes != 1 {
				t.Fatalf("traced=%v: %d recomputes, want 1", traced, fb.Recomputes)
			}
			if !traced && !zero() {
				t.Errorf("an allocation nobody read wrote the link sums: %v, %v", fb.linkRate, fb.externalRate)
			}
			if traced {
				samplesMatch("start")
			}
			_, refLink, refExt := fb.referenceAllocate()
			fb.LinkRate(0)
			if !slices.Equal(fb.linkRate, refLink) || !slices.Equal(fb.externalRate, refExt) {
				t.Errorf("traced=%v: first read summed %v / %v, oracle %v / %v", traced, fb.linkRate, fb.externalRate, refLink, refExt)
			}
			// One flow leaves after its sums were read, the other two with
			// their last allocation unread.
			done.Wait(p)
			if traced {
				samplesMatch("after the first completion")
			}
			p.Sleep(time.Second)
			if fb.ActiveFlows() != 0 {
				t.Fatalf("%d flows still active", fb.ActiveFlows())
			}
			for l := range fb.linkRate {
				if fb.LinkRate(LinkID(l)) != 0 || fb.ExternalRate(LinkID(l)) != 0 || fb.LinkUtilization(LinkID(l)) != 0 {
					t.Errorf("traced=%v: link %d reads %g (external %g) with no flows", traced, l, fb.LinkRate(LinkID(l)), fb.ExternalRate(LinkID(l)))
				}
			}
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
	}
}
