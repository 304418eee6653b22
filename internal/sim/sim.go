// Package sim implements a deterministic cooperative virtual-time scheduler.
//
// All higher layers of this repository (the network fabric, the simulated GPU
// runtime, the MCCS service engines and the tenant applications) execute as
// sim processes. Exactly one process runs at any instant; a process gives up
// control only at explicit blocking points (Sleep, queue pops, event waits).
// The scheduler advances a virtual clock between events, so a multi-host,
// multi-second experiment executes in milliseconds of real time and is
// reproducible bit-for-bit.
//
// Concurrency model: exactly one thing runs at a time, so simulation state
// needs no locks. All sim objects must be touched only from scheduler
// context (process bodies, step functions and event callbacks). A process
// comes in two kinds that the event loop treats as one:
//
//   - A goroutine process (Go) runs ordinary blocking code. The scheduler
//     and the process goroutine exchange a baton over a pair of channels at
//     every blocking point — two goroutine switches per wakeup.
//   - A stackless process (GoStep) is a step function the event loop calls
//     inline, on its own stack, every time the process is dispatched: no
//     goroutine, no channel. Where blocking code would park, the step
//     function calls the Park form of the primitive (Proc.ParkSleep,
//     WaitQueue.Park, Queue.Park, Latch.Park), saves its resume point and
//     returns false; it returns true when its work is done.
//
// The blocking primitives are their Park forms followed by the baton
// hand-off, so a body written either way schedules exactly the same events
// (EventWake → ready → EventDispatch) in the same order: the observable schedule
// cannot tell the two kinds apart. The service's engines (the proxy's
// control loop, its execution pipeline and its schedule interpreter) are
// stackless; tenants, the controllers above the service and tests are
// goroutine processes.
//
// # Performance shape
//
// The event loop is the hot path under every experiment in the repository,
// so it is built to schedule and fire events without allocating:
//
//   - Events live in a pooled arena ([]event indexed by int32) with an index
//     free list; firing or canceling an event recycles its slot. A
//     per-slot generation counter keeps recycled Timer handles inert.
//   - Pending events sit in an intrusive 4-ary min-heap of arena indexes
//     ordered by (at, seq) — no interface boxing, no per-element
//     allocation, and a shallower tree than the binary container/heap it
//     replaced. Canceled events are dropped lazily and the heap compacts
//     itself when more than half its entries are dead.
//   - Events scheduled for the current instant bypass the heap entirely and
//     append to the ready set (sequence order is preserved because new
//     events always draw larger sequence numbers).
//   - The dominant scheduling actions — process start, wakeup, Sleep, and
//     a call into a long-lived receiver with one integer argument
//     (AtCall/AfterCall) — are tagged event kinds interpreted by the loop,
//     not closures, so none of them allocates a func() per action.
//   - What an owner would allocate per wait or per spawn it can keep instead:
//     a WaitQueue holds its first waiter inline (a one-waiter Future or Latch
//     has no ring), a Latch re-arms (Reset), and a finished stackless process
//     runs again (Proc.Restart).
//
// The observable schedule — the (at, seq) observer stream, and therefore
// every same-seed trace, telemetry export and chaos replay — is
// byte-for-byte identical to the original container/heap implementation;
// TestScheduleFingerprintGolden at the repository root pins it.
package sim

import (
	"fmt"
	"slices"
	"time"
)

// Time is a virtual timestamp, measured as an offset from the start of the
// simulation. The zero Time is the simulation epoch.
type Time time.Duration

// Duration re-exports time.Duration for call-site brevity.
type Duration = time.Duration

// Add returns t shifted forward by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns t expressed in seconds.
func (t Time) Seconds() float64 { return time.Duration(t).Seconds() }

func (t Time) String() string { return time.Duration(t).String() }

// procState tracks where a process is in its lifecycle.
type procState int

const (
	procRunnable procState = iota
	procRunning
	procParked
	procDone
)

// Proc is a simulated process. A Proc is created by Scheduler.Go or GoStep
// and passed to the process body; the body uses it for all blocking (or,
// in a step function, parking) operations.
type Proc struct {
	s       *Scheduler
	name    string
	id      int
	state   procState
	daemon  bool   // excluded from deadlock detection (long-lived service loops)
	killed  bool   // set by Shutdown; a blocked goroutine unwinds instead of resuming
	parkSeq uint64 // increments at every park; stale wakeups are discarded

	// resume is the goroutine's half of the baton; a stackless process has
	// step, which dispatch runs inline, instead.
	resume chan struct{}
	step   func(p *Proc) bool

	// parkedIdx / liveIdx are this process's slots in the scheduler's
	// parked and live slices (intrusive bookkeeping; -1 when absent).
	parkedIdx int32
	liveIdx   int32
}

// Name returns the debug name the process was created with.
func (p *Proc) Name() string { return p.name }

// Scheduler returns the scheduler this process belongs to.
func (p *Proc) Scheduler() *Scheduler { return p.s }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.s.now }

// EventKind tags what firing an event means. The dominant scheduling
// actions are data, not closures: the loop interprets the tag, so
// starting, waking or sleeping a process allocates nothing.
type EventKind uint8

const (
	EventFn       EventKind = iota // run a user callback (At/After)
	EventDispatch                  // run proc until it parks or exits
	EventWake                      // ready(proc, wakeSeq) — Sleep
	EventCall                      // h.OnEvent(wakeSeq) — AtCall/AfterCall
)

// Handler receives the events scheduled with AtCall and AfterCall. A
// long-lived object that schedules many events for itself (a connection
// delivering messages) implements it once and passes what distinguishes
// each event as the argument, instead of allocating a closure per event.
type Handler interface {
	OnEvent(arg uint64)
}

// event is a scheduled callback slot in the arena. By default events fire
// in (at, seq) order; seq breaks ties so that events scheduled earlier run
// earlier, which keeps the simulation deterministic. An installed Picker
// (see SetPicker) may permute the firing order among events that share a
// timestamp — the foundation of the chaos harness's schedule fuzzing.
//
// The struct is exactly one cache line (64 bytes) and the loop touches
// every event several times; keep it that way.
type event struct {
	at       Time
	seq      uint64
	gen      uint32 // bumped on every recycle; guards stale Timer handles
	kind     EventKind
	canceled bool
	inHeap   bool

	fn      func()  // EventFn
	proc    *Proc   // EventDispatch, EventWake
	wakeSeq uint64  // EventWake; the argument of EventCall
	h       Handler // EventCall
}

// Timer is a handle to a scheduled callback that can be stopped. The zero
// Timer is valid and inert. Timers are plain values: copying one copies
// the handle, and stopping any copy cancels the same event.
type Timer struct {
	s   *Scheduler
	idx int32
	gen uint32
}

// Stop cancels the timer if it has not fired. It reports whether the timer
// was still pending. Stopping a fired, already-stopped, or zero timer is a
// safe no-op: the generation counter on the event slot means a handle to a
// recycled slot can never cancel the slot's new occupant.
func (t Timer) Stop() bool {
	if t.s == nil {
		return false
	}
	ev := &t.s.arena[t.idx]
	if ev.gen != t.gen || ev.canceled {
		return false
	}
	ev.canceled = true
	if ev.inHeap {
		t.s.heapDead++
		t.s.maybeCompactHeap()
	}
	return true
}

// Picker selects which of n same-instant ready events fires next. It is
// consulted only when more than one event is runnable at the current
// virtual time; returning a value outside [0, n) falls back to index 0.
// A deterministic Picker (e.g. a seeded PRNG) keeps the simulation
// bit-reproducible while exploring interleavings the default FIFO order
// never reaches.
type Picker interface {
	Pick(n int) int
}

// Scheduler owns the virtual clock and the event queue.
type Scheduler struct {
	now Time
	seq uint64

	// arena is the pooled event storage; free lists recycled slots.
	arena []event
	free  []int32

	// heap is an intrusive 4-ary min-heap of arena indexes ordered by
	// (at, seq). heapDead counts canceled entries still inside it; they
	// are dropped lazily on pop and in bulk by maybeCompactHeap.
	heap     []int32
	heapDead int

	// readySet holds the current instant's runnable events as arena
	// indexes. Entries before readyHead have been consumed (the head
	// advances instead of shifting the slice, so FIFO picks are O(1)).
	// Entries from committed onward were scheduled since the last drain
	// point and are not yet pick candidates: commitReady filters the
	// canceled ones out before the next pick, which reproduces exactly
	// the visibility the heap round-trip used to give them.
	readySet  []int32
	readyHead int
	committed int

	yield  chan struct{}
	nextID int

	picker   Picker
	observer EventObserver

	// instantEnd holds the end-of-instant flushers (see OnInstantEnd).
	instantEnd []func()

	// traceSink is an opaque attachment point for the flight recorder
	// (internal/trace). The scheduler is the one object every layer
	// already holds, so parking the recorder here lets instrumentation
	// reach it without threading a new parameter through every
	// constructor — and without this package importing the trace
	// package.
	traceSink any

	// metricsSink is the same attachment pattern for the live telemetry
	// registry (internal/telemetry): engines cache metric handles from it
	// at construction time, so it must be installed before the layers are
	// built.
	metricsSink any

	// liveProcs holds every process that has not finished (including ones
	// never yet dispatched); parked holds the currently-parked subset.
	// Both are intrusive slices with swap-removal via the indexes stored
	// on the Proc.
	liveProcs []*Proc
	parked    []*Proc
	current   *Proc

	panicked any
}

// New returns an empty scheduler positioned at the simulation epoch.
func New() *Scheduler {
	return &Scheduler{
		yield: make(chan struct{}, 1),
	}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// SetPicker installs a tie-break policy among same-timestamp events. nil
// restores the default FIFO (scheduling-order) policy. Install before Run;
// switching mid-run is allowed but changes which interleaving is explored
// from that point on.
func (s *Scheduler) SetPicker(pk Picker) { s.picker = pk }

// SetObserver installs an EventObserver that sees only (at, seq). The
// benchmark module (bench/) is its one caller; it goes with that module's
// next change.
func (s *Scheduler) SetObserver(fn func(at Time, seq uint64)) {
	s.observer = nil
	if fn != nil {
		s.observer = func(at Time, seq uint64, _ EventKind, _ Handler) { fn(at, seq) }
	}
}

// EventObserver is the hook SetEventObserver installs, invoked
// immediately before every executed event with the event's firing time
// and sequence number, what the event does and, for an EventCall, the
// handler it goes to (nil otherwise). The sequence of (at, seq) pairs is
// a complete fingerprint of the simulation schedule: two runs are the
// same interleaving iff their observer streams match. It only observes;
// counting fired events by kind and handler type is one (see the op-path
// event-mix test in internal/mccsd).
type EventObserver func(at Time, seq uint64, kind EventKind, h Handler)

// SetEventObserver installs fn in place of any observer; nil removes it.
func (s *Scheduler) SetEventObserver(fn EventObserver) { s.observer = fn }

// OnInstantEnd registers fn to run whenever the scheduler is about to
// advance the virtual clock past the current instant, and once more when
// the event queue drains. Layers that batch same-instant work (the
// network fabric coalescing rate recomputations into one allocation per
// instant) use it to flush pending state before time moves on, so every
// cross-instant observable is consistent no matter how many mutations the
// instant contained.
//
// fn may schedule new events — including events earlier than the pending
// queue head — and the scheduler re-evaluates the queue when it does. fn
// must be idempotent and cheap when there is nothing to flush: it can be
// invoked more than once per instant. The hooks run as a pass, in
// registration order; whenever any hook of a pass schedules an event,
// another pass follows before the clock moves, so the last pass of an
// instant is one in which no hook scheduled anything.
//
// A hook may call NextEventAt to learn how far the clock is about to move
// and skip work whose result only matters across a given time (the
// telemetry sampler captures the registry only when the next event lies at
// or beyond its next boundary). What it may assume: an answer at or beyond
// T is final when the pass turns out to be the last — a hook running later
// in that pass can cancel events but not schedule them, which only moves
// the answer later — and an answer before T is either followed by another
// pass at this instant or by hooks running at that earlier time, canceled
// or not (the clock still stops at a head canceled during the last pass),
// so the skipped work is reconsidered before the clock reaches T.
func (s *Scheduler) OnInstantEnd(fn func()) {
	s.instantEnd = append(s.instantEnd, fn)
}

// Forever is the firing time NextEventAt reports for an empty queue, and
// Run's limit.
const Forever = Time(1<<62 - 1)

// NextEventAt returns the firing time of the earliest pending event: Now
// while events of the current instant are still queued, Forever when
// nothing is pending. A canceled event still at the head of the queue
// counts — the clock stops there too. Meant for OnInstantEnd hooks; see
// there for what an answer guarantees.
func (s *Scheduler) NextEventAt() Time {
	if s.readyLen() > 0 {
		return s.now
	}
	if len(s.heap) == 0 {
		return Forever
	}
	return s.arena[s.heap[0]].at
}

// runInstantEnd invokes the registered end-of-instant flushers and
// reports whether any of them scheduled new work. Detection is by the
// monotonic event sequence counter, which every schedule draws from.
func (s *Scheduler) runInstantEnd() bool {
	if len(s.instantEnd) == 0 {
		return false
	}
	before := s.seq
	for _, fn := range s.instantEnd {
		fn()
	}
	return s.seq != before
}

// SetTraceSink attaches an opaque value (in practice a *trace.Recorder)
// that instrumented layers retrieve via TraceSink. The scheduler itself
// never touches it.
func (s *Scheduler) SetTraceSink(v any) { s.traceSink = v }

// TraceSink returns the value installed by SetTraceSink, or nil.
func (s *Scheduler) TraceSink() any { return s.traceSink }

// SetMetricsSink attaches an opaque value (in practice a
// *telemetry.Registry) that instrumented layers retrieve via
// MetricsSink. The scheduler itself never touches it.
func (s *Scheduler) SetMetricsSink(v any) { s.metricsSink = v }

// MetricsSink returns the value installed by SetMetricsSink, or nil.
func (s *Scheduler) MetricsSink() any { return s.metricsSink }

// ---------------------------------------------------------------------------
// Event arena

// allocEvent returns a free arena slot, reusing recycled ones first.
func (s *Scheduler) allocEvent() int32 {
	if n := len(s.free); n > 0 {
		idx := s.free[n-1]
		s.free = s.free[:n-1]
		return idx
	}
	s.arena = append(s.arena, event{})
	return int32(len(s.arena) - 1)
}

// recycleEvent returns a slot to the free list. The generation bump
// invalidates every outstanding Timer handle to the slot, and the
// reference fields are cleared so the arena pins no dead closures.
func (s *Scheduler) recycleEvent(idx int32) {
	ev := &s.arena[idx]
	ev.gen++
	ev.fn = nil
	ev.proc = nil
	ev.h = nil
	s.free = append(s.free, idx)
}

// schedule places a new event of the given kind: the heap for future
// instants, or — the fast path — straight onto the ready set when it is
// due this very instant. Appending preserves (at, seq) pick order because
// a new event's seq is larger than every seq already drawn, which is
// exactly the position the heap round-trip would have given it. The
// caller fills in the kind's payload fields (recycling left them zero)
// before scheduling anything else.
func (s *Scheduler) schedule(t Time, kind EventKind) (int32, *event) {
	s.seq++
	idx := s.allocEvent()
	ev := &s.arena[idx]
	ev.at, ev.seq, ev.kind = t, s.seq, kind
	ev.canceled = false
	if t == s.now {
		ev.inHeap = false
		s.readySet = append(s.readySet, idx)
	} else {
		ev.inHeap = true
		s.heapPush(idx)
	}
	return idx, ev
}

// ---------------------------------------------------------------------------
// Intrusive 4-ary min-heap over the arena, ordered by (at, seq)

func (s *Scheduler) heapPush(idx int32) {
	s.heap = append(s.heap, idx)
	s.siftUp(len(s.heap) - 1)
}

// heapPopHead removes and returns the heap minimum. The caller owns the
// popped index (clears inHeap, recycles or readies it).
func (s *Scheduler) heapPopHead() int32 {
	h := s.heap
	top := h[0]
	last := h[len(h)-1]
	s.heap = h[:len(h)-1]
	if len(s.heap) > 0 {
		s.siftDown(0, last)
	}
	return top
}

func (s *Scheduler) siftUp(i int) {
	h := s.heap
	idx := h[i]
	at, seq := s.arena[idx].at, s.arena[idx].seq
	for i > 0 {
		parent := (i - 1) >> 2
		pe := &s.arena[h[parent]]
		if at > pe.at || (at == pe.at && seq > pe.seq) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = idx
}

// siftDown re-inserts idx starting at hole position i.
func (s *Scheduler) siftDown(i int, idx int32) {
	h := s.heap
	n := len(h)
	at, seq := s.arena[idx].at, s.arena[idx].seq
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		min := first
		me := &s.arena[h[first]]
		last := first + 4
		if last > n {
			last = n
		}
		for j := first + 1; j < last; j++ {
			je := &s.arena[h[j]]
			if je.at < me.at || (je.at == me.at && je.seq < me.seq) {
				min, me = j, je
			}
		}
		if at < me.at || (at == me.at && seq < me.seq) {
			break
		}
		h[i] = h[min]
		i = min
	}
	h[i] = idx
}

// maybeCompactHeap drops canceled entries in bulk once they outnumber the
// live ones: filter in place, then heapify bottom-up. The floor keeps
// small heaps from compacting on every cancel.
func (s *Scheduler) maybeCompactHeap() {
	const minCompact = 32
	if len(s.heap) < minCompact || s.heapDead*2 <= len(s.heap) {
		return
	}
	kept := 0
	for _, idx := range s.heap {
		ev := &s.arena[idx]
		if ev.canceled {
			ev.inHeap = false
			s.recycleEvent(idx)
			continue
		}
		s.heap[kept] = idx
		kept++
	}
	s.heap = s.heap[:kept]
	s.heapDead = 0
	for i := (len(s.heap) - 2) >> 2; i >= 0; i-- {
		s.siftDown(i, s.heap[i])
	}
}

// ---------------------------------------------------------------------------
// Scheduling API

// newProc registers a runnable process; the caller gives it a body and
// schedules its first dispatch.
func (s *Scheduler) newProc(name string) *Proc {
	p := &Proc{s: s, name: name, parkedIdx: -1}
	s.enroll(p)
	return p
}

// enroll makes p a live, runnable process under the next process id.
func (s *Scheduler) enroll(p *Proc) {
	s.nextID++
	p.id = s.nextID
	p.state = procRunnable
	p.liveIdx = int32(len(s.liveProcs))
	s.liveProcs = append(s.liveProcs, p)
}

// Go creates a process named name executing fn and schedules it to start at
// the current virtual time.
func (s *Scheduler) Go(name string, fn func(p *Proc)) *Proc {
	p := s.newProc(name)
	p.resume = make(chan struct{}, 1)
	go func() {
		<-p.resume
		defer func() {
			if r := recover(); r != nil {
				if _, unwound := r.(procKilled); !unwound && s.panicked == nil {
					s.panicked = fmt.Sprintf("sim process %q panicked: %v", p.name, r)
				}
			}
			p.state = procDone
			s.dropLive(p)
			s.yield <- struct{}{}
		}()
		if !p.killed {
			fn(p)
		}
	}()
	s.scheduleDispatch(p)
	return p
}

// GoStep creates a stackless process: step is called inline by the event
// loop — no goroutine, no channel — at the current virtual time and again
// after every wakeup, until it returns true. A call that returns false must
// have parked the process with exactly one Park-form primitive
// (Proc.ParkSleep, WaitQueue.Park, Queue.Park, Latch.Park); the blocking
// primitives panic inside a step function. The process is scheduled, woken,
// counted in deadlock reports (unless marked Daemon) and killed by Shutdown
// exactly like one created by Go, and a panic in step surfaces the same way.
func (s *Scheduler) GoStep(name string, step func(p *Proc) (done bool)) *Proc {
	p := s.newProc(name)
	p.step = step
	s.scheduleDispatch(p)
	return p
}

// Restart runs a finished stackless process again: its step function is
// called at the current virtual time and after every wakeup until it returns
// true, as if GoStep had just created it — the same single dispatch event
// where GoStep would have scheduled one, a fresh process id, and the same
// standing with Shutdown and deadlock reports — but without allocating a
// process. An owner that runs one step function over and over (a channel
// interpreter, once per operation) keeps the Proc GoStep returned and
// restarts it. Restarting a process that has not finished, or a goroutine
// process, panics.
func (p *Proc) Restart() {
	if p.step == nil || p.state != procDone {
		panic(fmt.Sprintf("sim: Restart of process %q, which is not a finished step process", p.name))
	}
	p.s.enroll(p)
	p.s.scheduleDispatch(p)
}

// GoDaemon is Go for service loops that legitimately outlive the workload:
// a daemon parked forever does not count as a deadlock.
func (s *Scheduler) GoDaemon(name string, fn func(p *Proc)) *Proc {
	return s.Go(name, fn).Daemon()
}

// Daemon marks p — a process of either kind — as a service loop that
// legitimately outlives the workload (see GoDaemon) and returns it.
func (p *Proc) Daemon() *Proc {
	p.daemon = true
	return p
}

// At schedules fn to run in scheduler context at time t (or now, if t is in
// the past). The returned Timer can cancel it.
func (s *Scheduler) At(t Time, fn func()) Timer {
	if t < s.now {
		t = s.now
	}
	idx, ev := s.schedule(t, EventFn)
	ev.fn = fn
	return Timer{s: s, idx: idx, gen: ev.gen}
}

// After schedules fn to run d from now.
func (s *Scheduler) After(d Duration, fn func()) Timer {
	return s.At(s.now.Add(d), fn)
}

// AtCall schedules h.OnEvent(arg) to run in scheduler context at time t (or
// now, if t is in the past): At without the closure.
func (s *Scheduler) AtCall(t Time, h Handler, arg uint64) Timer {
	if t < s.now {
		t = s.now
	}
	idx, ev := s.schedule(t, EventCall)
	ev.h, ev.wakeSeq = h, arg
	return Timer{s: s, idx: idx, gen: ev.gen}
}

// AfterCall schedules h.OnEvent(arg) to run d from now.
func (s *Scheduler) AfterCall(d Duration, h Handler, arg uint64) Timer {
	return s.AtCall(s.now.Add(d), h, arg)
}

// scheduleDispatch schedules p to run at the current instant.
func (s *Scheduler) scheduleDispatch(p *Proc) {
	_, ev := s.schedule(s.now, EventDispatch)
	ev.proc = p
}

// ---------------------------------------------------------------------------
// Process state

// dropLive removes p from the live-process slice (swap-removal).
func (s *Scheduler) dropLive(p *Proc) {
	i := p.liveIdx
	if i < 0 {
		return
	}
	last := s.liveProcs[len(s.liveProcs)-1]
	s.liveProcs[i] = last
	last.liveIdx = i
	s.liveProcs = s.liveProcs[:len(s.liveProcs)-1]
	p.liveIdx = -1
}

// dropParked removes p from the parked slice (swap-removal).
func (s *Scheduler) dropParked(p *Proc) {
	i := p.parkedIdx
	if i < 0 {
		return
	}
	last := s.parked[len(s.parked)-1]
	s.parked[i] = last
	last.parkedIdx = i
	s.parked = s.parked[:len(s.parked)-1]
	p.parkedIdx = -1
}

// dispatch runs p until it parks or exits: a step function inline, a
// goroutine by handing it the baton and waiting for it to come back.
func (s *Scheduler) dispatch(p *Proc) {
	if p.state == procDone {
		return
	}
	p.state = procRunning
	s.current = p
	if p.step != nil {
		// A panic in here unwinds to RunUntil with s.current still set,
		// which is how it is attributed to p.
		if p.step(p) {
			p.state = procDone
			s.dropLive(p)
		} else if p.state != procParked {
			panic("step function returned false without parking")
		}
		s.current = nil
		return
	}
	p.resume <- struct{}{}
	<-s.yield
	s.current = nil
	if s.panicked != nil {
		panic(s.panicked)
	}
}

// procKilled is the panic value block uses to unwind a process being
// terminated by Shutdown; the process wrapper recognizes and swallows it.
type procKilled struct{}

// markParked is the non-blocking half of every park: it moves the running
// process to the parked set and invalidates earlier wakeups. The caller has
// already arranged the wakeup (an EventWake event, a wait-queue entry) against
// park sequence parkSeq+1.
func (p *Proc) markParked() {
	if p.s.current != p || p.state != procRunning {
		panic("sim: park called from a process that is not running")
	}
	p.state = procParked
	p.parkSeq++
	p.parkedIdx = int32(len(p.s.parked))
	p.s.parked = append(p.s.parked, p)
}

// block is the blocking half: the goroutine hands the baton back to the
// scheduler and waits to be dispatched again.
func (p *Proc) block() {
	if p.resume == nil {
		panic("sim: blocking call inside a step function (use the Park forms)")
	}
	p.s.yield <- struct{}{}
	<-p.resume
	if p.killed {
		panic(procKilled{})
	}
}

// ready marks a parked process runnable, scheduling its resumption at the
// current virtual time. seq guards against stale wakeups.
func (s *Scheduler) ready(p *Proc, seq uint64) {
	if p.state != procParked || p.parkSeq != seq {
		return
	}
	p.state = procRunnable
	s.dropParked(p)
	s.scheduleDispatch(p)
}

// ParkSleep arms a wakeup d of virtual time from now and marks the process
// parked without blocking: the step-function form of Sleep (see GoStep).
func (p *Proc) ParkSleep(d Duration) {
	if d < 0 {
		d = 0
	}
	// When the event fires, p is readied iff its park sequence still matches.
	_, ev := p.s.schedule(p.s.now.Add(d), EventWake)
	ev.proc, ev.wakeSeq = p, p.parkSeq+1
	p.markParked()
}

// Sleep suspends the process for d of virtual time.
func (p *Proc) Sleep(d Duration) {
	p.ParkSleep(d)
	p.block()
}

// SleepUntil suspends the process until virtual time t.
func (p *Proc) SleepUntil(t Time) {
	p.Sleep(t.Sub(p.s.now))
}

// DeadlockError reports processes that can never be woken: the event queue
// drained while they were still parked.
type DeadlockError struct {
	Now    Time
	Parked []string
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at %v: %d process(es) parked forever: %v",
		time.Duration(e.Now), len(e.Parked), e.Parked)
}

// ---------------------------------------------------------------------------
// The event loop

// Run executes events until the queue drains. It returns a *DeadlockError if
// processes remain parked with no pending events, and nil otherwise.
func (s *Scheduler) Run() error {
	return s.RunUntil(Forever)
}

// readyLen returns the number of events in the ready set (consumed head
// slots excluded).
func (s *Scheduler) readyLen() int { return len(s.readySet) - s.readyHead }

// commitReady makes the events scheduled since the last drain point pick
// candidates, discarding those canceled in the meantime. This reproduces
// the pre-arena heap semantics exactly: an event scheduled and canceled
// within the same turn never became visible to the Picker, while one
// canceled after entering the ready set stays (and is skipped when
// picked).
func (s *Scheduler) commitReady() {
	if s.committed < len(s.readySet) {
		kept := s.committed
		for i := s.committed; i < len(s.readySet); i++ {
			idx := s.readySet[i]
			if s.arena[idx].canceled {
				s.recycleEvent(idx)
				continue
			}
			s.readySet[kept] = idx
			kept++
		}
		s.readySet = s.readySet[:kept]
	}
	s.committed = len(s.readySet)
}

// RunUntil executes events with timestamps <= limit. The clock stops at the
// last executed event (or limit if events remain beyond it).
//
// Events sharing a timestamp form a ready set; the installed Picker (FIFO
// when none) chooses which fires next. Events scheduled for the current
// instant while it is being processed join the ready set and are eligible
// for the very next pick, so a fuzzing Picker can reorder them ahead of
// older same-instant work.
//
// # Limit semantics
//
// When events remain beyond limit, the end-of-instant flushers run once
// for the last executed instant, and only then does the clock park at
// limit — so cross-instant observables are consistent as of that last
// instant, and no flusher (nor any event) runs at the limit instant
// itself. Observables that accrue continuously between events (the
// fabric's transferred-byte counters) are therefore stale by up to
// limit − lastEvent; readers sampling at the limit must force their own
// sync (netsim's tests do, with Fabric.Sync). When the queue instead
// drains before limit, the clock stops at the last executed event, not at
// limit.
//
// If a process panics, RunUntil terminates every other live process (their
// deferred calls run) and re-panics the original value, so a recovered
// simulation leaves no goroutines behind.
func (s *Scheduler) RunUntil(limit Time) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if p := s.current; p != nil && p.step != nil && s.panicked == nil {
				// A step function panicked on the scheduler's own stack;
				// report it the way a goroutine process's wrapper does.
				s.panicked = fmt.Sprintf("sim process %q panicked: %v", p.name, r)
				r = s.panicked
			}
			s.current = nil
			s.killAll()
			panic(r)
		}
	}()
	for {
		if len(s.heap) == 0 && s.readyLen() == 0 {
			// The queue drained: a final end-of-instant flush may reveal
			// more work (a coalesced fabric arming its completion timer),
			// in which case the run continues.
			if !s.runInstantEnd() {
				break
			}
			continue
		}
		if s.readyLen() == 0 {
			// The instant is fully consumed; reclaim the ready set's
			// backing before advancing the clock to the next pending
			// event.
			s.readySet = s.readySet[:0]
			s.readyHead, s.committed = 0, 0
			idx := s.heap[0]
			ev := &s.arena[idx]
			if ev.canceled {
				s.heapPopHead()
				ev.inHeap = false
				s.heapDead--
				s.recycleEvent(idx)
				continue
			}
			// The clock is about to move: let end-of-instant flushers
			// finish the current instant first. They may enqueue new
			// events (even earlier than the current head, e.g. a fabric
			// arming a nearer completion timer), so re-evaluate the
			// queue when they do.
			if ev.at > s.now && s.runInstantEnd() {
				continue
			}
			if ev.at > limit {
				s.now = limit
				return nil
			}
			if ev.at > s.now {
				s.now = ev.at
			}
			// Pull everything scheduled for this instant out of the heap.
			// Pops arrive in seq order, so appending preserves pick order.
			for len(s.heap) > 0 {
				idx := s.heap[0]
				ev := &s.arena[idx]
				if ev.at > s.now {
					break
				}
				s.heapPopHead()
				ev.inHeap = false
				if ev.canceled {
					s.heapDead--
					s.recycleEvent(idx)
					continue
				}
				s.readySet = append(s.readySet, idx)
			}
			s.committed = len(s.readySet)
		} else {
			s.commitReady()
		}
		// Reclaim the consumed prefix once it dominates the backing array,
		// so a long same-instant cascade cannot grow the ready set without
		// bound. Pure memory motion: pick order is unaffected.
		if s.readyHead > 64 && s.readyHead*2 > len(s.readySet) {
			n := copy(s.readySet, s.readySet[s.readyHead:])
			s.readySet = s.readySet[:n]
			s.committed -= s.readyHead
			s.readyHead = 0
		}
		n := s.readyLen()
		if n == 0 {
			continue
		}
		pos := s.readyHead
		if s.picker != nil && n > 1 {
			if i := s.picker.Pick(n); i > 0 && i < n {
				pos += i
			}
		}
		idx := s.readySet[pos]
		// Remove by shifting the prefix right and advancing the head: picks
		// cost O(1) instead of shifting the whole tail left, and a FIFO
		// pick, whose prefix is empty, shifts nothing.
		if pos > s.readyHead {
			copy(s.readySet[s.readyHead+1:pos+1], s.readySet[s.readyHead:pos])
		}
		s.readyHead++
		ev := &s.arena[idx]
		if ev.canceled {
			// Canceled after entering the ready set (a Timer stopped by
			// an earlier same-instant event).
			s.recycleEvent(idx)
			continue
		}
		// Snapshot and recycle before firing: the callback may allocate
		// new events into this very slot.
		seq, kind, fn, proc, wakeSeq, h := ev.seq, ev.kind, ev.fn, ev.proc, ev.wakeSeq, ev.h
		s.recycleEvent(idx)
		s.committed = len(s.readySet)
		if s.observer != nil {
			s.observer(s.now, seq, kind, h)
		}
		switch kind {
		case EventDispatch:
			s.dispatch(proc)
		case EventWake:
			s.ready(proc, wakeSeq)
		case EventCall:
			h.OnEvent(wakeSeq)
		default:
			fn()
		}
		if s.panicked != nil {
			panic(s.panicked)
		}
	}
	var stuck []string
	for _, p := range s.parked {
		if !p.daemon {
			stuck = append(stuck, p.name)
		}
	}
	if len(stuck) > 0 {
		slices.Sort(stuck)
		return &DeadlockError{Now: s.now, Parked: stuck}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Termination

// Shutdown terminates every live process and discards all pending events.
// Parked goroutine processes are unwound — their deferred calls run —
// processes never yet dispatched are released without running their body,
// and stackless processes are simply dropped. Call it when a simulation's
// results have been read, or when abandoning one mid-flight (a deadlocked
// or failed run in a long-lived sweep), so no goroutines outlive the
// scheduler and nothing they reference stays reachable. Outstanding Timer
// handles stay inert. The scheduler must not be used afterwards beyond
// reads; Run on a shut-down scheduler returns immediately.
func (s *Scheduler) Shutdown() {
	s.killAll()
	for _, idx := range s.heap {
		s.arena[idx].inHeap = false
		s.recycleEvent(idx)
	}
	s.heap = s.heap[:0]
	s.heapDead = 0
	for _, idx := range s.readySet[s.readyHead:] {
		s.recycleEvent(idx)
	}
	s.readySet = s.readySet[:0]
	s.readyHead, s.committed = 0, 0
}

// killAll unwinds every live process, lowest id first, until none remain
// (a deferred call may spawn or wake others; the sweep repeats until the
// population is empty). Runs in scheduler context only.
func (s *Scheduler) killAll() {
	for len(s.liveProcs) > 0 {
		victim := s.liveProcs[0]
		for _, p := range s.liveProcs[1:] {
			if p.id < victim.id {
				victim = p
			}
		}
		victim.killed = true
		if victim.state == procParked {
			s.dropParked(victim)
		}
		if victim.resume == nil {
			// Stackless: no goroutine to unwind, no deferred calls to run.
			victim.state = procDone
			s.dropLive(victim)
			continue
		}
		victim.resume <- struct{}{}
		<-s.yield
	}
}
