package sim

import (
	"testing"
	"time"
)

// BenchmarkSimCore measures the scheduler's three dominant hot paths in
// isolation. The sub-benchmark names are stable identifiers: DESIGN.md §10
// quotes them, so renaming one breaks the perf paper trail.
func BenchmarkSimCore(b *testing.B) {
	// timer-churn is the fabric's completion-timer pattern: against a
	// backdrop of pending timers, every operation arms two timers, stops
	// one, and advances the clock so the survivor fires and the canceled
	// slot is reclaimed. It exercises arena alloc/free, 4-ary heap
	// push/pop, cancelation, and the clock-advance path.
	b.Run("timer-churn", func(b *testing.B) {
		s := New()
		fired := 0
		fn := func() { fired++ }
		for i := 0; i < 64; i++ {
			s.At(Time(time.Hour)+Time(i), func() {})
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			doomed := s.After(time.Microsecond, fn)
			s.After(time.Microsecond, fn)
			doomed.Stop()
			if err := s.RunUntil(s.Now().Add(time.Microsecond)); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if fired != b.N {
			b.Fatalf("fired %d of %d", fired, b.N)
		}
	})

	// same-instant-wake is the engine wake pattern: a process schedules
	// work for the current instant and yields behind it, so every
	// operation is two same-instant events plus a park/dispatch cycle —
	// the path the ready-set fast path serves without touching the heap.
	b.Run("same-instant-wake", func(b *testing.B) {
		s := New()
		cnt := 0
		fn := func() { cnt++ }
		n := b.N
		s.Go("driver", func(p *Proc) {
			for i := 0; i < n; i++ {
				s.At(s.Now(), fn)
				p.Sleep(0) // behind the event just queued
			}
		})
		b.ReportAllocs()
		b.ResetTimer()
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if cnt != b.N {
			b.Fatalf("ran %d of %d", cnt, b.N)
		}
	})

	// proc-handoff is the engine-to-engine hop: two processes exchange
	// the baton through a pair of queues, so every operation is two
	// wakes, two parks, and two full scheduler dispatches.
	b.Run("proc-handoff", func(b *testing.B) {
		s := New()
		ping := NewQueue[int]()
		pong := NewQueue[int]()
		n := b.N
		s.Go("a", func(p *Proc) {
			for i := 0; i < n; i++ {
				ping.Push(s, i)
				pong.Pop(p)
			}
		})
		s.Go("b", func(p *Proc) {
			for i := 0; i < n; i++ {
				pong.Push(s, ping.Pop(p))
			}
		})
		b.ReportAllocs()
		b.ResetTimer()
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
	})

	// stackless-handoff is proc-handoff with both processes written as
	// step functions: the same events, dispatched inline by the loop with
	// no goroutine switch. The gap between the two is what a per-message
	// process on the datapath used to cost.
	b.Run("stackless-handoff", func(b *testing.B) {
		s := New()
		ping := NewQueue[int]()
		pong := NewQueue[int]()
		n := b.N
		sent, echoed := 0, 0
		s.GoStep("a", func(p *Proc) bool {
			if sent > 0 {
				if _, ok := pong.TryPop(); !ok {
					pong.Park(p)
					return false
				}
			}
			if sent == n {
				return true
			}
			ping.Push(s, sent)
			sent++
			pong.Park(p)
			return false
		})
		s.GoStep("b", func(p *Proc) bool {
			for echoed < n {
				v, ok := ping.TryPop()
				if !ok {
					ping.Park(p)
					return false
				}
				pong.Push(s, v)
				echoed++
			}
			return true
		})
		b.ReportAllocs()
		b.ResetTimer()
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
	})

	// queue-backlog pops from a queue with a standing backlog of 4096
	// items (a burst of sends queued on one connection): the head-indexed
	// Ring makes each pop O(1) where the slice it replaced copied the
	// whole backlog down.
	b.Run("queue-backlog", func(b *testing.B) {
		s := New()
		q := NewQueue[int]()
		for i := 0; i < 4096; i++ {
			q.Push(s, i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q.Push(s, i)
			if _, ok := q.TryPop(); !ok {
				b.Fatal("empty")
			}
		}
	})
}
