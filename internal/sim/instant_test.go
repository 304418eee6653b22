package sim

import (
	"testing"
	"time"
)

// TestOnInstantEndRunsBeforeAdvance asserts the end-of-instant hook
// fires between the last event of one instant and the first event of the
// next, seeing the fully-mutated state of the instant it closes.
func TestOnInstantEndRunsBeforeAdvance(t *testing.T) {
	s := New()
	var log []string
	s.OnInstantEnd(func() { log = append(log, "flush@"+s.Now().String()) })
	s.At(0, func() { log = append(log, "a") })
	s.At(0, func() { log = append(log, "b") })
	s.At(Time(time.Millisecond), func() { log = append(log, "c") })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// Both same-instant events run, then one flush, then the next
	// instant, then the final drain flush.
	want := []string{"a", "b", "flush@0s", "c", "flush@1ms"}
	if len(log) != len(want) {
		t.Fatalf("log = %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log = %v, want %v", log, want)
		}
	}
}

// TestOnInstantEndSchedulesEarlierEvent asserts a flusher may insert an
// event ahead of the pending queue head (a fabric arming a nearer
// completion timer) and the scheduler runs it in correct time order.
func TestOnInstantEndSchedulesEarlierEvent(t *testing.T) {
	s := New()
	var order []string
	armed := false
	s.OnInstantEnd(func() {
		if !armed {
			armed = true
			s.After(time.Microsecond, func() { order = append(order, "near") })
		}
	})
	s.At(0, func() { order = append(order, "start") })
	s.At(Time(time.Millisecond), func() { order = append(order, "far") })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != "start" || order[1] != "near" || order[2] != "far" {
		t.Fatalf("order = %v, want [start near far]", order)
	}
}

// TestOnInstantEndRevivesDrainedQueue asserts work scheduled by the
// final drain-time flush still runs: a coalesced fabric arming its first
// completion timer only at end-of-instant must not be dropped, or every
// waiter would deadlock.
func TestOnInstantEndRevivesDrainedQueue(t *testing.T) {
	s := New()
	fired := false
	armed := false
	s.OnInstantEnd(func() {
		if !armed {
			armed = true
			s.After(time.Millisecond, func() { fired = true })
		}
	})
	s.At(0, func() {})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Error("event armed by drain-time flush never ran")
	}
	if got := s.Now(); got != Time(time.Millisecond) {
		t.Errorf("clock = %v, want 1ms", got)
	}
}

// TestOnInstantEndRunsBeforeLimitReturn asserts RunUntil flushes the
// current instant before parking the clock at the limit.
func TestOnInstantEndRunsBeforeLimitReturn(t *testing.T) {
	s := New()
	flushes := 0
	s.OnInstantEnd(func() { flushes++ })
	s.At(0, func() {})
	s.At(Time(time.Second), func() { t.Error("event beyond limit ran") })
	if err := s.RunUntil(Time(time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if flushes == 0 {
		t.Error("no flush before RunUntil returned at its limit")
	}
	if got := s.Now(); got != Time(time.Millisecond) {
		t.Errorf("clock = %v, want the 1ms limit", got)
	}
}

// TestNextEventAtFromHook pins what an end-of-instant hook reads: the next
// pending firing time, the current instant while an earlier hook's event is
// still queued for it, Forever on a drained queue — and, for a head an
// earlier hook of the same pass canceled, still that head's time, because
// the clock stops (and the hooks run) there all the same. NextEventAt is a
// pure read: the canceled head is the scheduler's to discard.
func TestNextEventAtFromHook(t *testing.T) {
	s := New()
	ms := func(n int) Time { return Time(time.Duration(n) * time.Millisecond) }
	type reading struct{ now, next Time }
	var got []reading
	var doomed Timer
	s.OnInstantEnd(func() {
		switch s.Now() {
		case ms(1):
			doomed.Stop()
		case ms(3):
			if len(got) == 3 { // first pass at 3 ms only
				s.At(ms(3), func() {})
			}
		}
	})
	s.OnInstantEnd(func() { got = append(got, reading{s.Now(), s.NextEventAt()}) })
	s.At(0, func() {})
	s.At(ms(1), func() {})
	doomed = s.At(ms(2), func() { t.Error("canceled event ran") })
	s.At(ms(3), func() {})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []reading{
		{0, ms(1)},
		{ms(1), ms(2)},   // the head was canceled earlier in this pass
		{ms(2), ms(3)},   // the clock stopped there and the hooks ran
		{ms(3), ms(3)},   // an earlier hook queued work for this instant
		{ms(3), Forever}, // the pass after it ran, on a drained queue
	}
	if len(got) != len(want) {
		t.Fatalf("readings = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("reading %d = %v, want %v (all: %v)", i, got[i], want[i], got)
		}
	}
}
