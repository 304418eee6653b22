package sim

// Ring is an unbounded FIFO whose Pop is O(1): the head index advances
// instead of the slice shifting down, and the consumed prefix is reclaimed
// when the ring empties or once it dominates the backing array (the same
// treatment the scheduler's ready set gets). The zero Ring is empty and
// ready to use. Wait queues, message queues and the transport's
// per-connection message rings are all Rings, so a standing backlog costs
// nothing per pop.
//
// Every slot past the tail is zero: a vacated slot is cleared when the head
// leaves it, and growth hands out zeroed memory. That is what lets Grow give
// out the next slot without writing it.
type Ring[T any] struct {
	items []T
	head  int
}

// Len returns the number of queued items.
func (r *Ring[T]) Len() int { return len(r.items) - r.head }

// Push appends v at the tail.
func (r *Ring[T]) Push(v T) { r.items = append(r.items, v) }

// Grow appends a zero item at the tail and returns a pointer to it, for a
// caller that fills a large item in place instead of building it and
// copying it in with Push. The pointer is valid until the next Push, Grow,
// Pop or DropHead.
func (r *Ring[T]) Grow() *T {
	if n := len(r.items); n < cap(r.items) {
		r.items = r.items[:n+1]
	} else {
		var zero T
		r.items = append(r.items, zero)
	}
	return &r.items[len(r.items)-1]
}

// At returns a pointer to the i-th item from the head (0 is the next Pop).
// The pointer is valid only until the next Push, Grow, Pop or DropHead.
func (r *Ring[T]) At(i int) *T { return &r.items[r.head+i] }

// Pop removes and returns the head; ok is false when the ring is empty.
func (r *Ring[T]) Pop() (v T, ok bool) {
	if r.head == len(r.items) {
		return v, false
	}
	v = r.items[r.head]
	r.DropHead()
	return v, true
}

// DropHead removes the head without copying it out: Pop for a caller that
// has already read it through At. The ring must not be empty.
func (r *Ring[T]) DropHead() {
	var zero T
	r.items[r.head] = zero // drop the reference for the collector
	r.head++
	switch {
	case r.head == len(r.items):
		r.items, r.head = r.items[:0], 0
	case r.head > 64 && r.head*2 > len(r.items):
		n := copy(r.items, r.items[r.head:])
		clear(r.items[n:])
		r.items, r.head = r.items[:n], 0
	}
}
