package sim

import (
	"testing"
	"time"
)

// TestEventObserver: the event observer sees every fired event with its kind
// and, for a call, its handler; a count built on it allocates nothing; and
// nil removes it.
func TestEventObserver(t *testing.T) {
	s := New()
	q := NewQueue[int]()
	s.GoStep("stepper", func(p *Proc) bool {
		if _, ok := q.TryPop(); !ok {
			q.Park(p)
			return false
		}
		p.ParkSleep(time.Microsecond)
		return false
	}).Daemon()
	push, fn := &pushHandler{s, q}, func() {}
	// One step: a call event pushes, the push wakes the stepper (a
	// dispatch), which sleeps (a wake, then a dispatch) and parks again;
	// a callback fires alongside.
	step := func() {
		s.AfterCall(time.Microsecond, push, 1)
		s.After(time.Microsecond, fn)
		if err := s.RunUntil(s.Now().Add(2 * time.Microsecond)); err != nil {
			t.Fatal(err)
		}
	}
	step()

	var kinds [EventCall + 1]int
	var wrongHandler int
	s.SetEventObserver(func(_ Time, _ uint64, kind EventKind, h Handler) {
		kinds[kind]++
		if (kind == EventCall) != (h == Handler(push)) {
			wrongHandler++
		}
	})
	for i := 0; i < 10; i++ {
		step()
	}
	want := [EventCall + 1]int{EventFn: 10, EventDispatch: 20, EventWake: 10, EventCall: 10}
	if kinds != want || wrongHandler != 0 {
		t.Errorf("observed kinds %v (%d with the wrong handler), want %v", kinds, wrongHandler, want)
	}

	var counted [EventCall + 1]int
	s.SetEventObserver(func(_ Time, _ uint64, kind EventKind, _ Handler) { counted[kind]++ })
	if n := testing.AllocsPerRun(500, step); n != 0 {
		t.Errorf("counted step allocates %v, want 0", n)
	}
	s.SetEventObserver(nil)
	before := counted
	step()
	if counted != before {
		t.Errorf("SetEventObserver(nil) left the hook installed: %v -> %v", before, counted)
	}
}
