package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// The equivalence scenario: three workers each sleep, then five times pop
// an item off a shared queue and sleep for as long as the item says; two
// producers feed the queue; a host process sleeps, runs the same worker
// body itself, waits for the workers on a latch and sleeps once more. Both
// bodies exist twice — as blocking code and as step functions, the host's
// running its worker as a sub-machine — and the whole point is that nothing
// the scheduler can observe tells them apart.

type equivLog struct {
	events  []string // observer stream
	actions []string // what the bodies did, and when
}

type equivEnv struct {
	s   *Scheduler
	q   *Queue[int]
	log *equivLog
}

func (e *equivEnv) did(id, v int) {
	e.log.actions = append(e.log.actions, fmt.Sprintf("%v w%d got %d", e.s.Now(), id, v))
}

func workerDelay(id int) Duration { return Duration(id%2) * 3 * time.Microsecond }

func blockingWorker(p *Proc, e *equivEnv, id int) {
	p.Sleep(workerDelay(id))
	for i := 0; i < 5; i++ {
		v := e.q.Pop(p)
		e.did(id, v)
		p.Sleep(Duration(v) * time.Microsecond)
	}
}

type stepWorker struct {
	e         *equivEnv
	id        int
	slept     bool
	popped    int
	afterDone func()
}

func (w *stepWorker) step(p *Proc) bool {
	if !w.slept {
		w.slept = true
		p.ParkSleep(workerDelay(w.id))
		return false
	}
	if w.popped == 5 {
		if w.afterDone != nil {
			w.afterDone()
		}
		return true
	}
	v, ok := w.e.q.TryPop()
	if !ok {
		w.e.q.Park(p)
		return false
	}
	w.popped++
	w.e.did(w.id, v)
	p.ParkSleep(Duration(v) * time.Microsecond)
	return false
}

func blockingHost(p *Proc, e *equivEnv, latch *Latch) {
	p.Sleep(time.Microsecond)
	blockingWorker(p, e, 7)
	latch.Wait(p)
	p.Sleep(time.Microsecond)
	e.log.actions = append(e.log.actions, fmt.Sprintf("%v host done", p.Now()))
}

type stepHost struct {
	e     *equivEnv
	latch *Latch
	at    int
	w     stepWorker
}

func (h *stepHost) step(p *Proc) bool {
	for {
		switch h.at {
		case 0:
			h.at = 1
			p.ParkSleep(time.Microsecond)
			return false
		case 1:
			if !h.w.step(p) {
				return false
			}
			h.at = 2
		case 2:
			if !h.latch.Park(p) {
				return false
			}
			h.at = 3
			p.ParkSleep(time.Microsecond)
			return false
		default:
			h.e.log.actions = append(h.e.log.actions, fmt.Sprintf("%v host done", p.Now()))
			return true
		}
	}
}

func runEquiv(t *testing.T, stackless bool, pk Picker) *equivLog {
	t.Helper()
	s := New()
	s.SetPicker(pk)
	log := &equivLog{}
	s.SetEventObserver(func(at Time, seq uint64, _ EventKind, _ Handler) {
		log.events = append(log.events, fmt.Sprintf("%d/%d", at, seq))
	})
	e := &equivEnv{s: s, q: NewQueue[int](), log: log}
	const workers = 3
	latch := NewLatch(workers)
	for id := 0; id < workers; id++ {
		id := id
		name := fmt.Sprintf("w%d", id)
		if stackless {
			w := &stepWorker{e: e, id: id, afterDone: func() { latch.Done(s) }}
			s.GoStep(name, w.step)
		} else {
			s.Go(name, func(p *Proc) {
				blockingWorker(p, e, id)
				latch.Done(s)
			})
		}
	}
	if stackless {
		s.GoStep("host", (&stepHost{e: e, latch: latch, w: stepWorker{e: e, id: 7}}).step)
	} else {
		s.Go("host", func(p *Proc) { blockingHost(p, e, latch) })
	}
	for pr := 0; pr < 2; pr++ {
		pr := pr
		s.Go(fmt.Sprintf("producer%d", pr), func(p *Proc) {
			for i := 0; i < 10; i++ {
				// Bursts of two at one instant, so readers race for items
				// and some wake to an empty queue.
				e.q.Push(s, 1+(i+pr)%3)
				if i%2 == 1 {
					p.Sleep(2 * time.Microsecond)
				}
			}
		})
	}
	if err := s.Run(); err != nil {
		t.Fatalf("stackless=%v: %v", stackless, err)
	}
	return log
}

func TestStepFunctionSchedulesTheSameEvents(t *testing.T) {
	pickers := map[string]func() Picker{
		"fifo": func() Picker { return nil },
	}
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		pickers[fmt.Sprintf("seed%d", seed)] = func() Picker { return &rngPicker{rng: rand.New(rand.NewSource(seed))} }
	}
	for name, mk := range pickers {
		blocking := runEquiv(t, false, mk())
		step := runEquiv(t, true, mk())
		if len(blocking.events) < 60 {
			t.Fatalf("%s: scenario too small to mean anything: %d events", name, len(blocking.events))
		}
		if !reflect.DeepEqual(blocking.events, step.events) {
			t.Errorf("%s: observer streams differ:\nblocking %v\nstep     %v", name, blocking.events, step.events)
		}
		if !reflect.DeepEqual(blocking.actions, step.actions) {
			t.Errorf("%s: behaviour differs:\nblocking %v\nstep     %v", name, blocking.actions, step.actions)
		}
	}
}

// procKinds builds the same process both ways, for the tests that check
// the scheduler treats them alike. body parks forever on q unless it is
// told to explode.
var procKinds = []struct {
	name  string
	spawn func(s *Scheduler, name string, step func(p *Proc) bool, cleaned *int)
}{
	{"goroutine", func(s *Scheduler, name string, step func(p *Proc) bool, cleaned *int) {
		s.Go(name, func(p *Proc) {
			defer func() { *cleaned++ }()
			// The blocking rendition of the step functions used below.
			p.Sleep(time.Millisecond)
			if step(nil) {
				return
			}
			NewQueue[int]().Pop(p)
		})
	}},
	{"stackless", func(s *Scheduler, name string, step func(p *Proc) bool, cleaned *int) {
		*cleaned++ // nothing to unwind
		s.GoStep(name, stepBody(step))
	}},
}

// stepBody sleeps a millisecond, calls fn(p) — which may panic, or return
// true to finish — and otherwise parks forever.
func stepBody(fn func(p *Proc) bool) func(p *Proc) bool {
	slept := false
	q := NewQueue[int]()
	return func(p *Proc) bool {
		if !slept {
			slept = true
			p.ParkSleep(time.Millisecond)
			return false
		}
		if fn(p) {
			return true
		}
		q.Park(p)
		return false
	}
}

func TestPanicParityAcrossProcKinds(t *testing.T) {
	for _, bomb := range procKinds {
		t.Run(bomb.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			s := New()
			cleaned := 0
			for _, k := range procKinds {
				k.spawn(s, "bystander-"+k.name, func(*Proc) bool { return false }, &cleaned)
			}
			bomb.spawn(s, "bomb", func(*Proc) bool { panic("boom") }, &cleaned)
			var got any
			func() {
				defer func() { got = recover() }()
				_ = s.Run()
			}()
			if want := `sim process "bomb" panicked: boom`; got != want {
				t.Fatalf("Run panicked with %v, want %q", got, want)
			}
			settleGoroutines(t, base)
			if cleaned != len(procKinds)+1 {
				t.Errorf("%d of %d processes were unwound", cleaned, len(procKinds)+1)
			}
			if len(s.liveProcs) != 0 || len(s.parked) != 0 {
				t.Errorf("%d live, %d parked processes left", len(s.liveProcs), len(s.parked))
			}
		})
	}
}

func TestDeadlockReportNamesEveryProcKind(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New()
	cleaned := 0
	var want []string
	for _, k := range procKinds {
		k.spawn(s, "stuck-"+k.name, func(*Proc) bool { return false }, &cleaned)
		want = append(want, "stuck-"+k.name)
	}
	slices.Sort(want)
	procKinds[1].spawn(s, "finishes", func(*Proc) bool { return true }, &cleaned)
	// Daemons of either kind park forever by design and are not reported.
	s.GoDaemon("daemon-goroutine", func(p *Proc) { NewQueue[int]().Pop(p) })
	s.GoStep("daemon-stackless", stepBody(func(*Proc) bool { return false })).Daemon()
	de, ok := s.Run().(*DeadlockError)
	if !ok {
		t.Fatal("expected DeadlockError")
	}
	if !reflect.DeepEqual(de.Parked, want) {
		t.Errorf("Parked = %v, want %v", de.Parked, want)
	}
	// Shutdown drops the stackless ones and unwinds the goroutines.
	s.Shutdown()
	settleGoroutines(t, base)
	if cleaned != len(procKinds)+1 {
		t.Errorf("%d of %d processes were unwound", cleaned, len(procKinds)+1)
	}
	if len(s.liveProcs) != 0 || len(s.parked) != 0 {
		t.Errorf("%d live, %d parked processes left", len(s.liveProcs), len(s.parked))
	}
}

func TestStepFunctionContractViolationsPanic(t *testing.T) {
	for name, step := range map[string]func(p *Proc) bool{
		"blocking call":    func(p *Proc) bool { p.Sleep(time.Microsecond); return true },
		"returns unparked": func(p *Proc) bool { return false },
		"parks twice":      func(p *Proc) bool { p.ParkSleep(1); p.ParkSleep(1); return false },
	} {
		s := New()
		s.GoStep("bad", step)
		var got any
		func() {
			defer func() { got = recover() }()
			_ = s.Run()
		}()
		if msg, _ := got.(string); !strings.HasPrefix(msg, `sim process "bad" panicked: `) {
			t.Errorf("%s: Run panicked with %v", name, got)
		}
	}
}

func TestRing(t *testing.T) {
	var r Ring[int]
	next, want := 0, 0
	// Grow a standing backlog, then drain in steps: every compaction path
	// (empty reset, prefix reclaim) must keep FIFO order, and every slot
	// Grow hands out — fresh, vacated or reclaimed — must be zero.
	for round := 0; round < 50; round++ {
		for i := 0; i < 40; i++ {
			if i%2 == 0 {
				r.Push(next)
			} else if p := r.Grow(); *p != 0 {
				t.Fatalf("Grow handed out a slot holding %d", *p)
			} else {
				*p = next
			}
			next++
		}
		for i := 0; i < 37+round%7; i++ {
			if *r.At(0) != want {
				t.Fatalf("At(0) = %d, want %d", *r.At(0), want)
			}
			if i%3 == 0 {
				r.DropHead()
			} else if v, ok := r.Pop(); !ok || v != want {
				t.Fatalf("Pop = %d,%v, want %d", v, ok, want)
			}
			want++
		}
		if r.Len() != next-want {
			t.Fatalf("Len = %d, want %d", r.Len(), next-want)
		}
	}
	for r.Len() > 0 {
		if v, _ := r.Pop(); v != want {
			t.Fatalf("Pop = %d, want %d", v, want)
		}
		want++
	}
	if _, ok := r.Pop(); ok || want != next {
		t.Fatalf("drained %d of %d", want, next)
	}
}
