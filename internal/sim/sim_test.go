package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func ms(n int) Duration { return time.Duration(n) * time.Millisecond }

func TestClockAdvances(t *testing.T) {
	s := New()
	var at []Time
	s.Go("sleeper", func(p *Proc) {
		at = append(at, p.Now())
		p.Sleep(ms(10))
		at = append(at, p.Now())
		p.Sleep(ms(5))
		at = append(at, p.Now())
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{0, Time(ms(10)), Time(ms(15))}
	for i := range want {
		if at[i] != want[i] {
			t.Errorf("at[%d] = %v, want %v", i, at[i], want[i])
		}
	}
	if s.Now() != Time(ms(15)) {
		t.Errorf("final clock = %v, want 15ms", s.Now())
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	s := New()
	var order []int
	// Insert timers out of order; they must fire sorted by time, with ties
	// broken by insertion order.
	s.After(ms(30), func() { order = append(order, 3) })
	s.After(ms(10), func() { order = append(order, 1) })
	s.After(ms(20), func() { order = append(order, 2) })
	s.After(ms(10), func() { order = append(order, 11) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 11, 2, 3}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestTimerStop(t *testing.T) {
	s := New()
	fired := false
	tm := s.After(ms(10), func() { fired = true })
	if !tm.Stop() {
		t.Error("Stop on pending timer reported false")
	}
	if tm.Stop() {
		t.Error("second Stop reported true")
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Error("canceled timer fired")
	}
}

func TestRunUntilStopsClock(t *testing.T) {
	s := New()
	fired := 0
	s.After(ms(10), func() { fired++ })
	s.After(ms(50), func() { fired++ })
	if err := s.RunUntil(Time(ms(20))); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if s.Now() != Time(ms(20)) {
		t.Fatalf("clock = %v, want 20ms", s.Now())
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 2 {
		t.Fatalf("fired = %d after full run, want 2", fired)
	}
}

func TestQueueBlocksAndDelivers(t *testing.T) {
	s := New()
	q := NewQueue[int]()
	var got []int
	var popTime Time
	s.Go("consumer", func(p *Proc) {
		got = append(got, q.Pop(p))
		got = append(got, q.Pop(p))
		popTime = p.Now()
	})
	s.Go("producer", func(p *Proc) {
		p.Sleep(ms(5))
		q.Push(p.s, 1)
		p.Sleep(ms(5))
		q.Push(p.s, 2)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("got %v, want [1 2]", got)
	}
	if popTime != Time(ms(10)) {
		t.Errorf("second pop completed at %v, want 10ms", popTime)
	}
}

func TestQueueFIFOAcrossManyItems(t *testing.T) {
	s := New()
	q := NewQueue[int]()
	const n = 100
	var got []int
	s.Go("consumer", func(p *Proc) {
		for i := 0; i < n; i++ {
			got = append(got, q.Pop(p))
		}
	})
	s.Go("producer", func(p *Proc) {
		for i := 0; i < n; i++ {
			q.Push(p.s, i)
			if i%7 == 0 {
				p.Sleep(ms(1))
			}
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if got[i] != i {
			t.Fatalf("got[%d] = %d, want %d", i, got[i], i)
		}
	}
}

func TestEventBroadcast(t *testing.T) {
	s := New()
	ev := &Event{}
	woken := 0
	for i := 0; i < 5; i++ {
		s.Go("waiter", func(p *Proc) {
			ev.Wait(p)
			woken++
			// Waiting on a fired event must not block.
			ev.Wait(p)
		})
	}
	s.Go("signaler", func(p *Proc) {
		p.Sleep(ms(1))
		ev.Signal(p.s)
		ev.Signal(p.s) // double signal is a no-op
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if woken != 5 {
		t.Fatalf("woken = %d, want 5", woken)
	}
	if !ev.Done() {
		t.Error("event not done")
	}
}

func TestLatch(t *testing.T) {
	s := New()
	l := NewLatch(3)
	var doneAt Time
	s.Go("waiter", func(p *Proc) {
		l.Wait(p)
		doneAt = p.Now()
	})
	for i := 1; i <= 3; i++ {
		d := ms(10 * i)
		s.Go("worker", func(p *Proc) {
			p.Sleep(d)
			l.Done(p.s)
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if doneAt != Time(ms(30)) {
		t.Errorf("latch opened at %v, want 30ms", doneAt)
	}
}

func TestFuture(t *testing.T) {
	s := New()
	f := NewFuture[int]()
	var got int
	s.Go("waiter", func(p *Proc) { got = f.Wait(p) })
	s.Go("setter", func(p *Proc) {
		p.Sleep(ms(2))
		f.Set(p.s, 42)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("got %d, want 42", got)
	}
	if !f.set {
		t.Error("future not set")
	}
}

func TestDeadlockDetection(t *testing.T) {
	s := New()
	q := NewQueue[int]()
	s.Go("stuck", func(p *Proc) { q.Pop(p) })
	err := s.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(de.Parked) != 1 || de.Parked[0] != "stuck" {
		t.Fatalf("parked = %v, want [stuck]", de.Parked)
	}
}

func TestWaitQueueWakeOneOrder(t *testing.T) {
	s := New()
	var wq WaitQueue
	var order []int
	for i := 0; i < 3; i++ {
		id := i
		s.Go("w", func(p *Proc) {
			wq.Wait(p)
			order = append(order, id)
		})
	}
	s.Go("waker", func(p *Proc) {
		p.Sleep(ms(1))
		for i := 0; i < 3; i++ {
			wq.WakeOne(p.s)
			p.Sleep(ms(1))
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range order {
		if order[i] != i {
			t.Fatalf("wake order = %v, want FIFO", order)
		}
	}
}

func TestDeterministicReplay(t *testing.T) {
	// Two identical simulations must produce identical event traces.
	run := func() []string {
		s := New()
		var trace []string
		q := NewQueue[int]()
		for i := 0; i < 4; i++ {
			id := i
			s.Go("p", func(p *Proc) {
				for j := 0; j < 3; j++ {
					p.Sleep(Duration(id+1) * time.Millisecond)
					q.Push(p.s, id*10+j)
					trace = append(trace, p.Now().String())
				}
			})
		}
		s.Go("drain", func(p *Proc) {
			for i := 0; i < 12; i++ {
				v := q.Pop(p)
				trace = append(trace, string(rune('A'+v%26)))
			}
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestPanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("panic in process did not propagate")
		}
	}()
	s := New()
	s.Go("bomb", func(p *Proc) { panic("boom") })
	_ = s.Run()
}

// Property: for any set of timer offsets, callbacks observe a non-decreasing
// clock and every callback fires exactly once.
func TestQuickTimerOrdering(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) > 200 {
			raw = raw[:200]
		}
		s := New()
		fired := 0
		last := Time(-1)
		okOrder := true
		for _, r := range raw {
			d := Duration(r) * time.Microsecond
			s.After(d, func() {
				if s.Now() < last {
					okOrder = false
				}
				last = s.Now()
				fired++
			})
		}
		if err := s.Run(); err != nil {
			return false
		}
		return okOrder && fired == len(raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: N producers pushing disjoint values through one queue lose and
// duplicate nothing.
func TestQuickQueueConservation(t *testing.T) {
	f := func(seed int64, nProd uint8, perProd uint8) bool {
		np := int(nProd%5) + 1
		k := int(perProd%20) + 1
		rng := rand.New(rand.NewSource(seed))
		s := New()
		q := NewQueue[int]()
		seen := make(map[int]int)
		for pi := 0; pi < np; pi++ {
			base := pi * 1000
			jitter := Duration(rng.Intn(50)) * time.Microsecond
			s.Go("prod", func(p *Proc) {
				for j := 0; j < k; j++ {
					p.Sleep(jitter)
					q.Push(p.s, base+j)
				}
			})
		}
		total := np * k
		s.Go("cons", func(p *Proc) {
			for i := 0; i < total; i++ {
				seen[q.Pop(p)]++
			}
		})
		if err := s.Run(); err != nil {
			return false
		}
		if len(seen) != total {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
