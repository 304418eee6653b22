package sim

import (
	"math/rand"
	"testing"
	"time"
)

// rngPicker is the test-local seeded fuzzing policy (the chaos package
// carries the production one).
type rngPicker struct{ rng *rand.Rand }

func (r *rngPicker) Pick(n int) int { return r.rng.Intn(n) }

// TestPickerPermutesSameInstant checks that a fuzzing picker can reorder
// same-timestamp events while a nil picker preserves scheduling order.
func TestPickerPermutesSameInstant(t *testing.T) {
	// FIFO baseline.
	s := New()
	var order []int
	for i := 0; i < 8; i++ {
		i := i
		s.At(Time(time.Millisecond), func() { order = append(order, i) })
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("FIFO order violated: %v", order)
		}
	}

	// A seeded picker permutes, and the permutation is reproducible.
	perm := func(seed int64) []int {
		s := New()
		s.SetPicker(&rngPicker{rng: rand.New(rand.NewSource(seed))})
		var got []int
		for i := 0; i < 8; i++ {
			i := i
			s.At(Time(time.Millisecond), func() { got = append(got, i) })
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return got
	}
	a, b := perm(42), perm(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different schedules: %v vs %v", a, b)
		}
	}
	diff := false
	for i, v := range perm(7) {
		if v != i {
			diff = true
		}
	}
	if !diff {
		t.Fatal("picker with seed 7 reproduced FIFO order exactly; fuzzing is a no-op")
	}
}

// TestObserverFingerprint checks the observer sees every fired event and
// that identical runs produce identical (at, seq) streams.
func TestObserverFingerprint(t *testing.T) {
	run := func(seed int64) []uint64 {
		s := New()
		s.SetPicker(&rngPicker{rng: rand.New(rand.NewSource(seed))})
		var fp []uint64
		s.SetEventObserver(func(at Time, seq uint64, _ EventKind, _ Handler) { fp = append(fp, uint64(at)^seq<<32) })
		for i := 0; i < 4; i++ {
			s.Go("worker", func(p *Proc) {
				for j := 0; j < 3; j++ {
					p.Sleep(10 * time.Microsecond)
				}
			})
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return fp
	}
	a, b := run(1), run(1)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("fingerprint lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fingerprints diverge at %d", i)
		}
	}
}

// TestTimerStopFromSameInstant checks that an event can cancel a timer
// scheduled for the same instant before it fires (the ready-set path).
func TestTimerStopFromSameInstant(t *testing.T) {
	s := New()
	fired := false
	var tm Timer
	s.At(Time(time.Millisecond), func() {
		if !tm.Stop() {
			t.Error("Stop returned false for a pending same-instant timer")
		}
	})
	tm = s.At(Time(time.Millisecond), func() { fired = true })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("stopped timer fired")
	}
}
