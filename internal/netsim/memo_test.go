package netsim

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"mccs/internal/sim"
)

// allocateUnmemoised is allocate with the memo taken out: what every
// recompute did before the memo existed, and what an over-limit flow set
// still does. It reads the link sums back through settleSums, as a
// monitoring query would.
func allocateUnmemoised(fb *Fabric) {
	if len(fb.flows) == 0 {
		return
	}
	fb.growScratch(len(fb.flows))
	fb.solve()
	fb.commit()
	fb.settleSums()
}

// checkMemoParity flushes, then re-solves the same flow set with the memo
// bypassed and demands every committed number be the same bits. Unlike
// checkOracle it also covers the bottleneck record, which the oracle does
// not compute and a memo hit has to restore.
func checkMemoParity(t *testing.T, fb *Fabric, when string) {
	t.Helper()
	fb.settleSums()
	n := len(fb.flows)
	rates := make([]float64, n)
	for i, fl := range fb.flows {
		rates[i] = fl.rate
	}
	bott := slices.Clone(fb.bott[:n])
	link, ext := slices.Clone(fb.linkRate), slices.Clone(fb.externalRate)
	allocateUnmemoised(fb)
	for i, fl := range fb.flows {
		if rates[i] != fl.rate || bott[i] != fb.bott[i] {
			t.Errorf("%s: flow %d committed rate %v bottleneck %d, solver says %v / %d",
				when, fl.ID, rates[i], bott[i], fl.rate, fb.bott[i])
		}
	}
	if !slices.Equal(link, fb.linkRate) || !slices.Equal(ext, fb.externalRate) {
		t.Errorf("%s: committed link rates differ from the solver's", when)
	}
}

// memoRig is the testbed graph with one route per (source NIC, hop count),
// so a test can name a flow by where it starts.
type memoRig struct {
	s    *sim.Scheduler
	fb   *Fabric
	net  *Network
	nics []NodeID
}

func newMemoRig() *memoRig {
	s := sim.New()
	net, nics := benchTestbed()
	return &memoRig{s: s, fb: NewFabric(s, net), net: net, nics: nics}
}

// opts is an endless flow from NIC i to the NIC `hop` positions on.
func (r *memoRig) opts(i, hop int) FlowOpts {
	return FlowOpts{Src: r.nics[i%len(r.nics)], Dst: r.nics[(i+hop)%len(r.nics)]}
}

// expectLookup flushes and checks which way the memo went.
func (r *memoRig) expectLookup(t *testing.T, when string, hit bool) {
	t.Helper()
	before := r.fb.Counters
	checkMemoParity(t, r.fb, when)
	dh, dm := r.fb.MemoHits-before.MemoHits, r.fb.MemoMisses-before.MemoMisses
	if dh+dm != 1 || hit != (dh == 1) {
		t.Errorf("%s: %d hits and %d misses, want hit=%v", when, dh, dm, hit)
	}
}

// TestMemoHitEqualsSolve walks the memo through every way its key can
// change and come back, comparing each committed allocation with a fresh
// solve.
func TestMemoHitEqualsSolve(t *testing.T) {
	r := newMemoRig()
	fb := r.fb
	r.s.Go("script", func(p *sim.Proc) {
		fb.StartFlow(r.opts(0, 2))
		fb.StartFlow(r.opts(1, 4))
		r.expectLookup(t, "two flows", false)
		a1 := fb.StartFlow(r.opts(2, 4))
		a2 := fb.StartFlow(r.opts(3, 2))
		r.expectLookup(t, "four flows", false)
		// The newcomers leave: a flow set seen before.
		fb.CancelFlow(a1)
		fb.CancelFlow(a2)
		r.expectLookup(t, "back to two flows", true)
		// New flows over the same routes: the ID order of the specs is what
		// it was.
		a1 = fb.StartFlow(r.opts(2, 4))
		fb.StartFlow(r.opts(3, 2))
		r.expectLookup(t, "same routes again", true)
		// Replacing the older of the two swaps the specs' ID order.
		fb.CancelFlow(a1)
		fb.StartFlow(r.opts(2, 4))
		r.expectLookup(t, "same routes in the other order", false)

		// A strict-priority flow arrives and leaves.
		bg := r.opts(0, 4)
		bg.FixedRate, bg.External = 30*gbps, true
		prio := fb.StartFlow(bg)
		r.expectLookup(t, "priority flow arrived", false)
		fb.CancelFlow(prio)
		r.expectLookup(t, "priority flow left", true)
		prio = fb.StartFlow(bg)
		r.expectLookup(t, "priority flow back", true)
		// The same route with a cap instead of a fixed rate is another spec.
		fb.CancelFlow(prio)
		bg.FixedRate, bg.MaxRate = 0, 30*gbps
		capped := fb.StartFlow(bg)
		r.expectLookup(t, "capped instead of fixed", false)
		fb.CancelFlow(capped)

		// Capacity: a new value invalidates, the old value back does too
		// (the epoch only counts up), restoring an unchanged link does not.
		l := fb.flows[0].Route[1]
		was := fb.SnapshotLink(l)
		r.expectLookup(t, "before capacity change", true)
		fb.SetLinkCapacity(l, 20*gbps)
		r.expectLookup(t, "capacity lowered", false)
		fb.SetLinkCapacity(l, 20*gbps)
		r.expectLookup(t, "capacity set to the same value", true)
		fb.RestoreLink(was)
		r.expectLookup(t, "capacity restored", false)
		recomputes := fb.Recomputes
		fb.RestoreLink(was)
		checkMemoParity(t, fb, "restore no-op")
		if fb.Recomputes != recomputes {
			t.Error("restoring an unchanged link recomputed")
		}
		r.fb.SetLinkCapacity(l, was.Capacity)
		r.expectLookup(t, "capacity re-set to its value", true)

		// Over the limit: no lookup, nothing stored; back under it the old
		// entries still answer.
		entries := fb.MemoEntries
		var extra []*Flow
		for i := 0; len(fb.flows) <= memoMaxFlows; i++ {
			extra = append(extra, fb.StartFlow(r.opts(i, 2)))
		}
		before := fb.Counters
		checkMemoParity(t, fb, "over the limit")
		if fb.MemoHits != before.MemoHits || fb.MemoMisses != before.MemoMisses || fb.MemoEntries != entries {
			t.Errorf("over-limit flow set touched the memo: %+v -> %+v", before, fb.Counters)
		}
		for _, fl := range extra {
			fb.CancelFlow(fl)
		}
		r.expectLookup(t, "back under the limit", true)

		for len(fb.flows) > 0 {
			fb.CancelFlow(fb.flows[0])
		}
	})
	if err := r.s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestMemoChurnParity churns a small pool of routes, caps and priorities —
// so inputs recur constantly — across time (completions) and capacity
// flaps, checking parity and the oracle after every batch.
func TestMemoChurnParity(t *testing.T) {
	var total Counters
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := newMemoRig()
		fb := r.fb
		r.s.Go("churn", func(p *sim.Proc) {
			var held []*Flow
			for round := 0; round < 400; round++ {
				switch k := rng.Intn(50); {
				case k < 25 && fb.ActiveFlows() < 12:
					o := r.opts(rng.Intn(4), 2+2*rng.Intn(2))
					o.Bytes = float64(1+rng.Intn(3)) * 1e5
					switch rng.Intn(6) {
					case 0:
						o.MaxRate = 10 * gbps
					case 1:
						o.FixedRate, o.External = 20*gbps, true
					}
					if rng.Intn(2) == 0 {
						fb.Send(&o)
						break
					}
					if rng.Intn(3) == 0 {
						o.Bytes = 0 // endless, until canceled
					}
					held = append(held, fb.StartFlow(o))
				case k < 40 && len(held) > 0:
					i := rng.Intn(len(held))
					fb.CancelFlow(held[i])
					held = slices.Delete(held, i, i+1)
				case k == 40:
					l := LinkID(rng.Intn(r.net.NumLinks()))
					fb.SetLinkCapacity(l, float64(10+40*rng.Intn(2))*gbps)
				default:
					p.Sleep(time.Duration(rng.Intn(40)) * time.Microsecond)
				}
				checkMemoParity(t, fb, "churn")
				if !checkOracle(t, fb, seed) {
					t.Errorf("seed %d round %d: allocation diverges from the oracle", seed, round)
				}
				if fb.MemoEntries > memoMaxEntries {
					t.Fatalf("seed %d: %d entries stored, cap %d", seed, fb.MemoEntries, memoMaxEntries)
				}
			}
			for _, fl := range held {
				fb.CancelFlow(fl)
			}
		})
		if err := r.s.Run(); err != nil {
			t.Fatal(err)
		}
		total.MemoHits += fb.MemoHits
		total.MemoMisses += fb.MemoMisses
		total.FlowsRecycled += fb.FlowsRecycled
	}
	t.Logf("%d memo hits, %d misses, %d flows recycled", total.MemoHits, total.MemoMisses, total.FlowsRecycled)
	if total.MemoHits == 0 || total.MemoMisses == 0 || total.FlowsRecycled == 0 {
		t.Errorf("churn did not exercise hits, misses and recycled flows: %+v", total)
	}
}

// TestMemoSteadyStateAllocs pins the memo's own hot paths: a hit allocates
// nothing, and neither does a miss once the table has been full — it is
// emptied and refilled in the storage it already has.
func TestMemoSteadyStateAllocs(t *testing.T) {
	r := newMemoRig()
	fb := r.fb
	r.s.Go("setup", func(p *sim.Proc) { startTestbedFlows(fb, r.nics) })
	if err := r.s.RunUntil(0); err != nil {
		t.Fatal(err)
	}
	if hit := testing.AllocsPerRun(100, fb.allocate); hit != 0 {
		t.Errorf("%v allocations per memo hit, want 0", hit)
	}
	miss := func() {
		fb.memo.epoch++
		fb.allocate()
	}
	for i := 0; i <= memoMaxEntries; i++ {
		miss()
	}
	hits, chunks := fb.MemoHits, len(fb.memo.chunks)
	if full := testing.AllocsPerRun(2*memoMaxEntries, miss); full != 0 {
		t.Errorf("%v allocations per miss on a full table, want 0", full)
	}
	if fb.MemoHits != hits || len(fb.memo.chunks) != chunks || fb.MemoEntries > memoMaxEntries {
		t.Errorf("full table: %d new hits, %d -> %d chunks, %d entries (cap %d)",
			fb.MemoHits-hits, chunks, len(fb.memo.chunks), fb.MemoEntries, memoMaxEntries)
	}
	checkMemoParity(t, fb, "after table turnover")
}

// countDone counts completions delivered through FlowOpts.OnDone.
type countDone struct{ n int }

func (c *countDone) OnEvent(uint64) { c.n++ }

// TestSendRecyclesOnlyItsOwnFlows: a Send flow's object is reused by later
// Sends, a handle StartFlow returned never is.
func TestSendRecyclesOnlyItsOwnFlows(t *testing.T) {
	r := newMemoRig()
	fb := r.fb
	var done countDone
	r.s.Go("app", func(p *sim.Proc) {
		short := r.opts(0, 2)
		short.Bytes = 1e4
		kept, keptDone := startFlow(fb, short)
		keptDone.Wait(p)
		id := kept.ID
		long := r.opts(1, 2) // endless: active the whole time
		live := fb.StartFlow(long)
		short.OnDone = &done
		for i := 0; i < 1000; i++ {
			fb.Send(&short)
			if i%2 == 1 {
				p.Sleep(time.Millisecond) // two in flight at a time
			}
		}
		p.Sleep(time.Millisecond)
		if kept.ID != id || !kept.finished || kept.onDone != keptDone {
			t.Errorf("finished handle changed under its holder: ID %d (was %d), finished %v", kept.ID, id, kept.finished)
		}
		if live.ID != id+1 || live.finished || live.Rate() <= 0 {
			t.Errorf("live handle changed under its holder: ID %d, finished %v", live.ID, live.finished)
		}
		for _, fl := range fb.free {
			if fl == kept || fl == live {
				t.Error("a StartFlow handle is on the free list")
			}
			if fl.ID != 0 || fl.samples != nil || fl.fb != nil {
				t.Errorf("free-list flow not reset: %+v", fl)
			}
		}
		fb.CancelFlow(live)
	})
	if err := r.s.Run(); err != nil {
		t.Fatal(err)
	}
	if done.n != 1000 {
		t.Errorf("%d of 1000 sends completed", done.n)
	}
	if fb.FlowsRecycled != 998 || len(fb.free) != 2 {
		t.Errorf("%d flows recycled, %d on the free list; want 998 and 2", fb.FlowsRecycled, len(fb.free))
	}
}
