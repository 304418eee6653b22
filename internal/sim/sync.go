package sim

// This file provides blocking primitives for sim processes: wait queues,
// one-shot events, completion latches and FIFO message queues. All of them
// must be used from scheduler context only.
//
// The primitives a step function (Scheduler.GoStep) can wait on — WaitQueue,
// Latch and Queue — also have a Park form that registers the process and
// marks it parked without blocking; the blocking form is the Park form
// followed by the baton hand-off, so both schedule the same events.

// waiter records one parked process together with the park sequence number
// that makes its wakeup valid.
type waiter struct {
	p   *Proc
	seq uint64
}

// WaitQueue is the low-level building block: processes park on it and other
// processes wake one or all of them. It carries no state of its own, so the
// caller supplies the predicate (as with sync.Cond).
//
// The longest-parked waiter is held inline and only a second concurrent
// waiter spills to the ring, so the queue of a one-shot object with one
// waiter — the future of an issued operation, the latch its executor joins
// on — allocates nothing. The order is the ring's: a waiter goes inline only
// when nobody at all is queued, and the inline waiter is woken first.
type WaitQueue struct {
	first   waiter // the head of the queue; p is nil when empty
	waiters Ring[waiter]
}

// Park registers p on the queue and marks it parked without blocking: the
// step-function form of Wait. The step function must return false right
// after; it is run again once WakeOne or WakeAll selects p.
func (q *WaitQueue) Park(p *Proc) {
	w := waiter{p: p, seq: p.parkSeq + 1}
	if q.first.p == nil && q.waiters.Len() == 0 {
		q.first = w
	} else {
		q.waiters.Push(w)
	}
	p.markParked()
}

// Wait parks the calling process until WakeOne or WakeAll selects it.
func (q *WaitQueue) Wait(p *Proc) {
	q.Park(p)
	p.block()
}

// pop removes and returns the longest-parked waiter.
func (q *WaitQueue) pop() (w waiter, ok bool) {
	if q.first.p != nil {
		w, q.first = q.first, waiter{}
		return w, true
	}
	return q.waiters.Pop()
}

// WakeOne readies the longest-parked waiter. It reports whether a waiter
// was woken.
func (q *WaitQueue) WakeOne(s *Scheduler) bool {
	for {
		w, ok := q.pop()
		if !ok {
			return false
		}
		if w.p.state == procParked && w.p.parkSeq == w.seq {
			s.ready(w.p, w.seq)
			return true
		}
	}
}

// WakeAll readies every waiter.
func (q *WaitQueue) WakeAll(s *Scheduler) int {
	n := 0
	for q.WakeOne(s) {
		n++
	}
	return n
}

// Event is a one-shot broadcast: Wait blocks until Signal has been called;
// once signaled it never blocks again.
type Event struct {
	done bool
	wq   WaitQueue
}

// Signal fires the event, waking all current and future waiters.
func (e *Event) Signal(s *Scheduler) {
	if e.done {
		return
	}
	e.done = true
	e.wq.WakeAll(s)
}

// Done reports whether the event has fired.
func (e *Event) Done() bool { return e.done }

// Wait blocks until the event fires. It returns immediately if it already
// has.
func (e *Event) Wait(p *Proc) {
	if e.done {
		return
	}
	e.wq.Wait(p)
}

// Latch counts down from n; Wait blocks until the count reaches zero.
// It generalizes Event to "wait for n completions".
type Latch struct {
	n  int
	wq WaitQueue
}

// NewLatch returns a latch that opens after n calls to Done.
func NewLatch(n int) *Latch { return &Latch{n: n} }

// Reset re-arms the latch to open after n more calls to Done, so an owner
// that joins on one latch at a time (an executor waiting for the channel
// programs of its current operation) keeps a single latch by value instead of
// allocating one per join. Nothing may be waiting on the latch.
func (l *Latch) Reset(n int) { l.n = n }

// Done decrements the count, waking waiters when it reaches zero.
func (l *Latch) Done(s *Scheduler) {
	if l.n <= 0 {
		return
	}
	l.n--
	if l.n == 0 {
		l.wq.WakeAll(s)
	}
}

// Park is the step-function form of Wait: it reports true if the latch is
// open; otherwise it parks p, without blocking, until the latch opens and
// reports false.
func (l *Latch) Park(p *Proc) (open bool) {
	if l.n <= 0 {
		return true
	}
	l.wq.Park(p)
	return false
}

// Wait blocks until the count reaches zero.
func (l *Latch) Wait(p *Proc) {
	if !l.Park(p) {
		p.block()
	}
}

// Queue is an unbounded FIFO of T with blocking Pop. It is the shared-memory
// command-queue analogue used between the shim and the service engines.
type Queue[T any] struct {
	items Ring[T]
	wq    WaitQueue
}

// NewQueue returns an empty queue.
func NewQueue[T any]() *Queue[T] { return &Queue[T]{} }

// Push appends v and wakes one blocked reader, if any.
func (q *Queue[T]) Push(s *Scheduler, v T) {
	q.items.Push(v)
	q.wq.WakeOne(s)
}

// TryPop removes and returns the head without blocking.
func (q *Queue[T]) TryPop() (T, bool) { return q.items.Pop() }

// Park registers p as a reader to be woken by the next Push, without
// blocking: what a step function does after a failed TryPop (see
// WaitQueue.Park). A woken reader must TryPop again — another reader may
// have taken the item.
func (q *Queue[T]) Park(p *Proc) { q.wq.Park(p) }

// Wait blocks the calling process until the next Push selects it.
func (q *Queue[T]) Wait(p *Proc) { q.wq.Wait(p) }

// Pop blocks the calling process until an item is available, then removes
// and returns the head.
func (q *Queue[T]) Pop(p *Proc) T {
	for {
		if v, ok := q.TryPop(); ok {
			return v
		}
		q.Wait(p)
	}
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return q.items.Len() }

// Future carries a single value produced once; Wait blocks until Set.
type Future[T any] struct {
	set bool
	val T
	wq  WaitQueue
}

// NewFuture returns an unset future.
func NewFuture[T any]() *Future[T] { return &Future[T]{} }

// Set stores the value and wakes all waiters. Setting twice panics: futures
// represent one-shot results.
func (f *Future[T]) Set(s *Scheduler, v T) {
	if f.set {
		panic("sim: Future set twice")
	}
	f.set = true
	f.val = v
	f.wq.WakeAll(s)
}

// Wait blocks until the value is set and returns it.
func (f *Future[T]) Wait(p *Proc) T {
	for !f.set {
		f.wq.Wait(p)
	}
	return f.val
}
