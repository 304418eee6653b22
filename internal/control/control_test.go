package control

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"mccs/internal/sim"
)

// AllGather is the blocking oracle of Begin and Park: the ring allgather as
// straight-line code on a goroutine process (sim.Scheduler.Go), blocking in
// Queue.Pop where the step function parks. It contributes val as rank's
// element and returns the full vector.
func (r *Ring) AllGather(p *sim.Proc, rank int, val int64) []int64 {
	if rank < 0 || rank >= r.n {
		panic("control: rank out of range")
	}
	out := make([]int64, r.n)
	for i := range out {
		out[i] = noValue
	}
	out[rank] = val
	if r.n == 1 {
		return out
	}
	r.epoch[rank]++
	ep := r.epoch[rank]
	next := (rank + 1) % r.n
	r.send(next, ctrlMsg{slot: rank, val: val, hops: 1, epoch: ep})
	for recvd := 0; recvd < r.n-1; recvd++ {
		m := r.popWait(p, rank, ep)
		out[m.slot] = m.val
		if m.hops < r.n-1 {
			r.send(next, ctrlMsg{slot: m.slot, val: m.val, hops: m.hops + 1, epoch: ep})
		}
	}
	return out
}

// popWait is pop, blocking until a message of epoch ep reaches rank.
func (r *Ring) popWait(p *sim.Proc, rank int, ep uint64) ctrlMsg {
	for i, m := range r.stash[rank] {
		if m.epoch == ep {
			r.stash[rank] = append(r.stash[rank][:i], r.stash[rank][i+1:]...)
			return m
		}
	}
	for {
		m := r.in[rank].Pop(p)
		if m.epoch == ep {
			return m
		}
		r.stash[rank] = append(r.stash[rank], m)
	}
}

// gatherer is one rank of a test as a step function: for each barrier it
// sleeps its delay, then gathers its value with Begin and Park, keeping
// every vector and the time it completed.
type gatherer struct {
	r      *Ring
	rank   int
	delays []time.Duration
	vals   []int64

	g     Gather
	k     int // barrier in progress
	slept bool
	got   [][]int64
	at    []sim.Time
}

func (x *gatherer) step(p *sim.Proc) bool {
	for ; x.k < len(x.vals); x.k++ {
		if !x.slept {
			x.slept = true
			p.ParkSleep(x.delays[x.k])
			return false
		}
		if x.g.Out == nil {
			x.r.Begin(&x.g, x.rank, x.vals[x.k])
		}
		if !x.r.Park(p, &x.g) {
			return false
		}
		x.got = append(x.got, x.g.Out)
		x.at = append(x.at, p.Now())
		x.g, x.slept = Gather{}, false
	}
	return true
}

// gatherAll runs one step-function rank per entry of vals (vals[rank][k] is
// rank's value in barrier k, delays[rank][k] how long it waits before
// joining it) and returns each rank's gatherer once the run drains.
func gatherAll(t *testing.T, s *sim.Scheduler, r *Ring, delays [][]time.Duration, vals [][]int64) []*gatherer {
	t.Helper()
	xs := make([]*gatherer, len(vals))
	for rank := range vals {
		xs[rank] = &gatherer{r: r, rank: rank, delays: delays[rank], vals: vals[rank]}
		s.GoStep("rank", xs[rank].step)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return xs
}

func TestAllGatherBasic(t *testing.T) {
	s := sim.New()
	n := 4
	r, err := NewRing(s, n, 10*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	delays, vals := make([][]time.Duration, n), make([][]int64, n)
	for rank := range vals {
		delays[rank], vals[rank] = []time.Duration{0}, []int64{int64(100 + rank)}
	}
	for rank, x := range gatherAll(t, s, r, delays, vals) {
		for k := 0; k < n; k++ {
			if x.got[0][k] != int64(100+k) {
				t.Fatalf("rank %d slot %d = %d, want %d", rank, k, x.got[0][k], 100+k)
			}
		}
	}
}

func TestAllGatherSingleRank(t *testing.T) {
	s := sim.New()
	r, _ := NewRing(s, 1, time.Microsecond)
	x := gatherAll(t, s, r, [][]time.Duration{{0}}, [][]int64{{7}})[0]
	if len(x.got[0]) != 1 || x.got[0][0] != 7 {
		t.Fatalf("got %v", x.got[0])
	}
}

func TestAllGatherIsABarrier(t *testing.T) {
	// No rank's AllGather may complete before the slowest rank joins.
	s := sim.New()
	n := 5
	r, _ := NewRing(s, n, time.Microsecond)
	joinDelay := []time.Duration{0, 1 * time.Millisecond, 0, 40 * time.Millisecond, 2 * time.Millisecond}
	delays, vals := make([][]time.Duration, n), make([][]int64, n)
	for rank := range vals {
		delays[rank], vals[rank] = []time.Duration{joinDelay[rank]}, []int64{int64(rank)}
	}
	for rank, x := range gatherAll(t, s, r, delays, vals) {
		if x.at[0] < sim.Time(40*time.Millisecond) {
			t.Errorf("rank %d completed at %v, before the slowest rank joined", rank, x.at[0])
		}
	}
}

func TestMax(t *testing.T) {
	if got := Max([]int64{3, 9, 1}); got != 9 {
		t.Errorf("Max = %d", got)
	}
	if got := Max([]int64{-5}); got != -5 {
		t.Errorf("Max = %d", got)
	}
}

func TestRingValidation(t *testing.T) {
	s := sim.New()
	if _, err := NewRing(s, 0, 0); err == nil {
		t.Error("zero-size ring accepted")
	}
}

// rngPicker is a seeded fuzzing policy for same-instant events.
type rngPicker struct{ rng *rand.Rand }

func (r *rngPicker) Pick(n int) int { return r.rng.Intn(n) }

// ringRun is one seeded run of a ring of n ranks through barriers
// back-to-back barriers: what every rank gathered, and the (at, seq) stream
// of the events it fired.
type ringRun struct {
	got    [][][]int64 // got[rank][barrier]
	stream []uint64
}

// runRing runs the scenario seed decodes — ring size, hop latency, values
// and join delays, and a Picker permuting same-instant events — with every
// rank a step function on the Park form (park true) or a goroutine on the
// blocking oracle.
func runRing(t *testing.T, seed int64, n, barriers int, park bool) ringRun {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s := sim.New()
	s.SetPicker(&rngPicker{rng: rand.New(rand.NewSource(seed ^ 0x5eed))})
	var run ringRun
	s.SetEventObserver(func(at sim.Time, seq uint64, _ sim.EventKind, _ sim.Handler) {
		run.stream = append(run.stream, uint64(at), seq)
	})
	r, err := NewRing(s, n, time.Duration(rng.Intn(50))*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	delays, vals := make([][]time.Duration, n), make([][]int64, n)
	for rank := range vals {
		for range barriers {
			// Zero delays and a zero hop latency put many events in one
			// instant, which is where the Picker reorders them.
			delays[rank] = append(delays[rank], time.Duration(rng.Intn(3))*time.Duration(rng.Intn(2000))*time.Microsecond)
			vals[rank] = append(vals[rank], rng.Int63n(1000)-500)
		}
	}
	run.got = make([][][]int64, n)
	if park {
		for rank, x := range gatherAll(t, s, r, delays, vals) {
			run.got[rank] = x.got
		}
	} else {
		for rank := range vals {
			s.Go("rank", func(p *sim.Proc) {
				for k, v := range vals[rank] {
					p.Sleep(delays[rank][k])
					run.got[rank] = append(run.got[rank], r.AllGather(p, rank, v))
				}
			})
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
	}
	for rank := range vals {
		if len(run.got[rank]) != barriers {
			t.Fatalf("seed %d: rank %d finished %d of %d barriers", seed, rank, len(run.got[rank]), barriers)
		}
		for k := range barriers {
			for slot := range n {
				if run.got[rank][k][slot] != vals[slot][k] {
					t.Fatalf("seed %d: rank %d barrier %d slot %d = %d, want %d", seed, rank, k, slot, run.got[rank][k][slot], vals[slot][k])
				}
			}
		}
	}
	return run
}

// FuzzControlRing checks the Park form against the blocking oracle: on a
// random ring size, random values and join delays, one to three barriers
// back to back (so a fast rank's next-barrier messages are stashed) and a
// seeded Picker, every rank gathers the same complete vectors either way,
// and the two runs fire the same (at, seq) event stream.
func FuzzControlRing(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(2))
	f.Add(int64(7), uint8(1), uint8(1))
	f.Add(int64(42), uint8(8), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, bRaw uint8) {
		n, barriers := int(nRaw%9)+1, int(bRaw%3)+1
		parked := runRing(t, seed, n, barriers, true)
		blocking := runRing(t, seed, n, barriers, false)
		for rank := range n {
			for k := range barriers {
				if !slices.Equal(parked.got[rank][k], blocking.got[rank][k]) {
					t.Fatalf("rank %d barrier %d: Park form %v, oracle %v", rank, k, parked.got[rank][k], blocking.got[rank][k])
				}
			}
		}
		if !slices.Equal(parked.stream, blocking.stream) {
			t.Fatalf("event streams differ: %d events parked, %d blocking", len(parked.stream)/2, len(blocking.stream)/2)
		}
	})
}

// Property: for any ring size, join jitter and values, every rank sees the
// identical complete vector.
func TestQuickAllGatherAgreement(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		runRing(t, seed, int(nRaw%9)+1, 1, true)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
