// Package collective implements the collective-communication algorithms
// MCCS executes — ring AllReduce, AllGather, ReduceScatter, Broadcast and
// Reduce, binomial-tree AllReduce/Broadcast/Reduce, and halving-doubling
// AllReduce — all lowered to one schedule IR (ir.go): per rank and
// channel, a Program of steps over resolved ranges of the output buffer.
//
// The package is deliberately independent of the transport and GPU layers:
// a program says *what* moves where and whether it is reduced; the proxy
// and transport engines decide *how* (which NIC, which network route, what
// timing). The same programs are executed on plain in-memory buffers by
// Execute in verify.go, which is how the test suite proves that, e.g.,
// AllReduce really computes the global sum for every ring ordering and
// every algorithm.
package collective

import (
	"fmt"
	"slices"
	"time"
)

// Op enumerates collective operations.
type Op int

const (
	AllReduce Op = iota
	AllGather
	ReduceScatter
	Broadcast
	Reduce
)

var opNames = [...]string{"AllReduce", "AllGather", "ReduceScatter", "Broadcast", "Reduce"}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// Ring is an ordering of the n ranks of a communicator into a cycle. MCCS's
// provider-side policy picks the order; NCCL uses rank order.
type Ring struct {
	order []int // order[pos] = rank
	pos   []int // pos[rank] = position
}

// NewRing builds a ring from a permutation of [0, n). order[i] is the rank
// at ring position i; data flows from position i to position i+1 (mod n).
func NewRing(order []int) (*Ring, error) {
	r := new(Ring)
	if err := r.set(order); err != nil {
		return nil, err
	}
	return r, nil
}

// set makes r the ring order describes, over r's own tables when they are
// large enough.
func (r *Ring) set(order []int) error {
	n := len(order)
	if n == 0 {
		return fmt.Errorf("collective: empty ring")
	}
	r.pos = slices.Grow(r.pos[:0], n)[:n]
	for i := range r.pos {
		r.pos[i] = -1
	}
	for p, rk := range order {
		if rk < 0 || rk >= n {
			return fmt.Errorf("collective: rank %d out of range [0,%d)", rk, n)
		}
		if r.pos[rk] != -1 {
			return fmt.Errorf("collective: rank %d appears twice in ring", rk)
		}
		r.pos[rk] = p
	}
	r.order = append(r.order[:0], order...)
	return nil
}

// Size returns the number of ranks.
func (r *Ring) Size() int { return len(r.order) }

// RankAt returns the rank at ring position p.
func (r *Ring) RankAt(p int) int { return r.order[p] }

// PosOf returns the ring position of a rank.
func (r *Ring) PosOf(rank int) int { return r.pos[rank] }

// Next returns the rank that follows rank in the ring (its send peer).
func (r *Ring) Next(rank int) int {
	return r.order[(r.pos[rank]+1)%len(r.order)]
}

// Prev returns the rank that precedes rank in the ring (its receive peer).
func (r *Ring) Prev(rank int) int {
	n := len(r.order)
	return r.order[(r.pos[rank]+n-1)%n]
}

// Regions splits count elements into n contiguous regions. Region i covers
// [starts[i], starts[i]+lens[i]). Regions are ceil-balanced: the first
// count%n regions hold one extra element, so sizes differ by at most one
// and sum to count.
func Regions(count int64, n int) (starts, lens []int64) {
	starts = make([]int64, n)
	lens = make([]int64, n)
	for i := range starts {
		starts[i], lens[i] = Part(count, n, i)
	}
	return starts, lens
}

// Part returns region i of Regions(total, parts) without building the
// whole split. The offset of the one-past-last region (i == parts) is
// total, so offsets double as region boundaries.
func Part(total int64, parts, i int) (off, n int64) {
	base, rem := total/int64(parts), total%int64(parts)
	if int64(i) < rem {
		return int64(i) * (base + 1), base + 1
	}
	return int64(i)*base + rem, base
}

// AlgBW is output bytes divided by elapsed time (the paper's "algorithm
// bandwidth", from the NCCL performance docs it cites).
func AlgBW(outputBytes int64, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(outputBytes) / elapsed.Seconds()
}

// BusBWFactor converts algorithm bandwidth to bus bandwidth — the
// algorithm-independent measure of exercised hardware bandwidth (NCCL
// tests' busbw). Multiply AlgBW by the factor.
func BusBWFactor(op Op, n int) float64 {
	if n <= 1 {
		return 1
	}
	nf := float64(n)
	switch op {
	case AllReduce:
		return 2 * (nf - 1) / nf
	case AllGather, ReduceScatter:
		return (nf - 1) / nf
	default: // Broadcast, Reduce: one full copy of the data moves
		return 1
	}
}
