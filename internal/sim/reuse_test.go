package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
)

// The objects an owner keeps across operations instead of allocating one per
// operation — the wait queue's inline first waiter, a step process that is
// restarted, a latch that is re-armed — must be invisible in the schedule.
// Each test here runs a scenario twice, once on the reused object and once
// on what it replaced, and compares the observer streams.

// parker is what the wait-queue scenario drives: WaitQueue, and the queue it
// was before the first waiter moved inline.
type parker interface {
	Park(p *Proc)
	WakeOne(s *Scheduler) bool
	WakeAll(s *Scheduler) int
}

// ringOnlyQueue is the reference: every waiter goes through the ring.
type ringOnlyQueue struct {
	waiters Ring[waiter]
}

func (q *ringOnlyQueue) Park(p *Proc) {
	q.waiters.Push(waiter{p: p, seq: p.parkSeq + 1})
	p.markParked()
}

func (q *ringOnlyQueue) WakeOne(s *Scheduler) bool {
	for {
		w, ok := q.waiters.Pop()
		if !ok {
			return false
		}
		if w.p.state == procParked && w.p.parkSeq == w.seq {
			s.ready(w.p, w.seq)
			return true
		}
	}
}

func (q *ringOnlyQueue) WakeAll(s *Scheduler) int {
	n := 0
	for q.WakeOne(s) {
		n++
	}
	return n
}

// runWaitQueueScript parks nprocs step processes on q and, at each of steps
// instants, does one thing the seed picks: wake one, wake all, or wake a
// parked process behind the queue's back, which leaves its entry in the queue
// stale. A woken process logs its name and, while the script lasts, parks
// again — so a process can sit in the queue twice, once stale and once for
// real — or takes a nap first and rejoins the queue later, so that the queue
// runs empty, holds one waiter and holds many, all in one script. It returns
// the wake log and the observer stream.
func runWaitQueueScript(q parker, seed int64, nprocs, steps int) (log, events []string) {
	s := New()
	defer s.Shutdown()
	s.SetEventObserver(func(at Time, seq uint64, _ EventKind, _ Handler) {
		events = append(events, fmt.Sprintf("%d/%d", at, seq))
	})
	rng := rand.New(rand.NewSource(seed))
	procs := make([]*Proc, nprocs)
	for i := range procs {
		napping := false
		procs[i] = s.GoStep(fmt.Sprintf("p%d", i), func(p *Proc) bool {
			if !napping {
				log = append(log, fmt.Sprintf("%v %s", p.Now(), p.Name()))
				if napping = rng.Intn(4) == 0; napping {
					p.ParkSleep(Duration(1+rng.Intn(5)) * time.Microsecond)
					return false
				}
			}
			napping = false
			q.Park(p)
			return false
		}).Daemon()
	}
	for i := 1; i <= steps; i++ {
		s.At(Time(i)*Time(time.Microsecond), func() {
			switch k := rng.Intn(10); {
			case k < 5:
				log = append(log, fmt.Sprintf("wake one: %v", q.WakeOne(s)))
			case k < 7:
				log = append(log, fmt.Sprintf("wake all: %d", q.WakeAll(s)))
			default:
				// A wakeup that does not come from the queue. The victim is a
				// process parked at this instant, if the draw finds one.
				if p := procs[rng.Intn(nprocs)]; p.state == procParked {
					log = append(log, "steal "+p.name)
					s.ready(p, p.parkSeq)
				}
			}
		})
	}
	if err := s.Run(); err != nil {
		panic(err)
	}
	return log, events
}

func TestWaitQueueInlineWaiterKeepsRingOrder(t *testing.T) {
	for _, nprocs := range []int{1, 2, 3, 9} {
		for seed := int64(1); seed <= 40; seed++ {
			wantLog, wantEvents := runWaitQueueScript(&ringOnlyQueue{}, seed, nprocs, 120)
			gotLog, gotEvents := runWaitQueueScript(&WaitQueue{}, seed, nprocs, 120)
			if len(wantLog) < 120 {
				t.Fatalf("n=%d seed %d: the script did nothing: %v", nprocs, seed, wantLog)
			}
			if !reflect.DeepEqual(gotLog, wantLog) {
				t.Fatalf("n=%d seed %d: wake order differs:\ninline %v\nring   %v", nprocs, seed, gotLog, wantLog)
			}
			if !reflect.DeepEqual(gotEvents, wantEvents) {
				t.Fatalf("n=%d seed %d: observer streams differ", nprocs, seed)
			}
		}
	}
}

// A single waiter never reaches the ring, so a one-shot object with one
// waiter allocates nothing for its queue.
func TestWaitQueueSingleWaiterStaysInline(t *testing.T) {
	s := New()
	defer s.Shutdown()
	var q WaitQueue
	woken := 0
	s.GoStep("w", func(p *Proc) bool {
		woken++
		q.Park(p)
		return false
	}).Daemon()
	for i := 1; i <= 5; i++ {
		s.At(Time(i), func() { q.WakeOne(s) })
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if woken != 6 || q.waiters.items != nil {
		t.Fatalf("woken %d times (want 6), ring backing %v (want none)", woken, q.waiters.items)
	}
}

// napper is a worker that sleeps twice and reports to a latch: what a
// spawner runs once per round, either as a fresh GoStep process every time
// or as one process restarted.
type napper struct {
	s     *Scheduler
	stage int
	done  *Latch
}

func (n *napper) step(p *Proc) bool {
	switch n.stage++; n.stage {
	case 1:
		p.ParkSleep(3 * time.Microsecond)
		return false
	case 2:
		p.ParkSleep(2 * time.Microsecond)
		return false
	}
	n.stage = 0
	n.done.Done(n.s)
	return true
}

// runRounds runs rounds of two workers joined on a latch, with a bystander
// ticking away so the workers' events interleave with somebody else's, and
// returns the observer stream. reuse keeps one latch and one process per
// worker for all rounds; otherwise every round makes its own.
func runRounds(t *testing.T, rounds int, reuse bool) []string {
	t.Helper()
	s := New()
	var events []string
	s.SetEventObserver(func(at Time, seq uint64, _ EventKind, _ Handler) {
		events = append(events, fmt.Sprintf("%d/%d", at, seq))
	})
	s.GoDaemon("bystander", func(p *Proc) {
		for {
			p.Sleep(time.Microsecond)
		}
	})
	var kept Latch
	workers := [2]napper{{s: s}, {s: s}}
	var procs [2]*Proc
	s.Go("spawner", func(p *Proc) {
		for r := 0; r < rounds; r++ {
			join := &kept
			if reuse {
				join.Reset(len(workers))
			} else {
				join = NewLatch(len(workers))
			}
			for i := range workers {
				workers[i].done = join
				if reuse && procs[i] != nil {
					procs[i].Restart()
				} else {
					procs[i] = s.GoStep(fmt.Sprintf("worker%d", i), workers[i].step)
				}
			}
			join.Wait(p)
			p.Sleep(time.Microsecond)
		}
	})
	if err := s.RunUntil(Time(time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	s.Shutdown()
	return events
}

func TestRestartSchedulesWhatGoStepDoes(t *testing.T) {
	fresh := runRounds(t, 6, false)
	reused := runRounds(t, 6, true)
	if len(fresh) < 100 {
		t.Fatalf("scenario too small to mean anything: %d events", len(fresh))
	}
	if !reflect.DeepEqual(fresh, reused) {
		t.Errorf("observer streams differ (%d events fresh, %d reused):\nfresh  %v\nreused %v", len(fresh), len(reused), fresh, reused)
	}
}

func TestRestartedProcessIsAnOrdinaryProcess(t *testing.T) {
	s := New()
	var q WaitQueue
	stuck := false
	p := s.GoStep("worker", func(p *Proc) bool {
		if stuck {
			q.Park(p)
			return false
		}
		return true
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(s.liveProcs) != 0 {
		t.Fatalf("%d live processes after the worker finished", len(s.liveProcs))
	}

	// Restarted and stuck, it is reported by name like any parked process…
	stuck = true
	id := p.id
	p.Restart()
	if p.id <= id {
		t.Errorf("restarted under id %d, had %d: not a fresh process id", p.id, id)
	}
	de, ok := s.Run().(*DeadlockError)
	if !ok || !slices.Equal(de.Parked, []string{"worker"}) {
		t.Fatalf("Run = %v, want a deadlock naming worker", de)
	}
	// …may not be restarted while it lives…
	if msg := panicOf(p.Restart); !strings.Contains(msg, `"worker"`) {
		t.Errorf("restart of a live process: %q", msg)
	}
	// …and Shutdown drops it.
	s.Shutdown()
	if len(s.liveProcs) != 0 || len(s.parked) != 0 || p.state != procDone {
		t.Errorf("after Shutdown: %d live, %d parked, state %v", len(s.liveProcs), len(s.parked), p.state)
	}

	// Only step processes restart.
	s2 := New()
	g := s2.Go("goroutine", func(*Proc) {})
	if err := s2.Run(); err != nil {
		t.Fatal(err)
	}
	if msg := panicOf(g.Restart); !strings.Contains(msg, `"goroutine"`) {
		t.Errorf("restart of a goroutine process: %q", msg)
	}
}

func panicOf(fn func()) (msg string) {
	defer func() { msg = fmt.Sprint(recover()) }()
	fn()
	return ""
}
