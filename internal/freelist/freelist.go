// Package freelist is the one free-list form behind the process-wide
// stores that run-scoped scratch memory goes back to when its run ends:
// device backings (gpusim), flight-recorder chunks (trace) and message
// snapshots (proxy). A store fills only through an explicit Put — a freed
// buffer, a released recorder, a destroyed or closed communicator — and the
// next run takes from it before it allocates, the way the MCCS service
// keeps its memory across tenants' communicators.
package freelist

import (
	"math/bits"
	"sync"
)

// List keeps released slices for reuse, binned by floor(log2(cap)). Get
// takes the tightest fit from the request's bin or the next one up, so a
// slice never serves a request of under a quarter of its capacity, and the
// list settles at what one run releases instead of growing with every size
// a run draws. It is not a sync.Pool: a collection would empty that, and
// the next run would fault its memory in afresh. The lock is taken per Get
// and Put, never on a data path. The zero value is an empty list, safe for
// concurrent use.
type List[T any] struct {
	mu   sync.Mutex
	bins [64][][]T
}

// Get returns a released slice of length n and capacity at least n, or nil
// when none fits (or n <= 0). Its elements are what its last owner left in
// them: a caller that needs zeroes clears it.
func (l *List[T]) Get(n int) []T {
	if n <= 0 {
		return nil
	}
	lo := bits.Len(uint(n)) - 1
	l.mu.Lock()
	for k := lo; k <= lo+1 && k < len(l.bins); k++ {
		bin := l.bins[k]
		best := -1
		for i, s := range bin {
			if c := cap(s); c >= n && (best < 0 || c < cap(bin[best])) {
				best = i
				if c == n {
					break
				}
			}
		}
		if best >= 0 {
			s := bin[best]
			last := len(bin) - 1
			bin[best] = bin[last]
			bin[last] = nil
			l.bins[k] = bin[:last]
			l.mu.Unlock()
			return s[:n]
		}
	}
	l.mu.Unlock()
	return nil
}

// Put hands s to the list; the caller keeps no reference to it. A slice of
// zero capacity is dropped.
func (l *List[T]) Put(s []T) {
	if cap(s) == 0 {
		return
	}
	k := bits.Len(uint(cap(s))) - 1
	l.mu.Lock()
	l.bins[k] = append(l.bins[k], s)
	l.mu.Unlock()
}
