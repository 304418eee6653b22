package collective

import (
	"fmt"
	"math/bits"
	"slices"
)

// The lowerings append their rounds to steps, which arrives empty: the caller
// of Lower owns the backing array and may hand in the previous program's.

// lowerRing lowers the ring schedules. The buffer is cut into regions —
// n ceil-balanced ones for AllReduce/ReduceScatter, one per contributing
// rank for AllGather, a single one for the rooted chains — and every
// region evenly across the nch channels; ch selects this program's share.
//
// Which region moves when:
//   - AllReduce: a region is identified by the ring position it
//     accumulates at; n-1 reduce-scatter rounds then n-1 allgather
//     rounds, every rank sending and receiving in each.
//   - ReduceScatter: the same flow as AllReduce's first phase, but
//     regions are labeled by the rank that ends up owning them (the
//     public output contract is rank-indexed): the region finishing at
//     position q is region RankAt(q).
//   - AllGather: a region is identified by the rank that contributed it,
//     since the output layout is rank-indexed.
//   - Broadcast / Reduce: the whole buffer hops along the ring as a
//     chain — away from the root for Broadcast, against the ring toward
//     the root with a reduction at every hop for Reduce. The rank at
//     chain position c receives in round c-1 and forwards in round c.
func lowerRing(steps []Step, op Op, ring *Ring, rank, root int, count int64, nch, ch int) []Step {
	n := ring.Size()
	p := ring.PosOf(rank)
	mod := func(x int) int { return ((x % n) + n) % n }
	span := func(region int) (int64, int64) {
		off, l := int64(0), count
		switch op {
		case AllReduce, ReduceScatter:
			off, l = Part(count, n, region)
		case AllGather:
			off = int64(region) * count
		}
		chOff, chLen := Part(l, nch, ch)
		return off + chOff, chLen
	}
	next, prev := ring.Next(rank), ring.Prev(rank)
	both := func(sendRegion, recvRegion int, reduce bool) Step {
		st := Step{SendPeer: next, RecvPeer: prev, RecvReduce: reduce}
		st.SendOff, st.SendLen = span(sendRegion)
		st.RecvOff, st.RecvLen = span(recvRegion)
		return st
	}

	switch op {
	case AllReduce:
		steps = slices.Grow(steps, 2*(n-1))
		for s := 0; s < n-1; s++ {
			steps = append(steps, both(mod(p-s), mod(p-s-1), true))
		}
		for s := 0; s < n-1; s++ {
			steps = append(steps, both(mod(p-s+1), mod(p-s), false))
		}
		return steps
	case ReduceScatter:
		steps = slices.Grow(steps, n-1)
		for s := 0; s < n-1; s++ {
			steps = append(steps, both(ring.RankAt(mod(p-s-1)), ring.RankAt(mod(p-s-2)), true))
		}
		return steps
	case AllGather:
		steps = slices.Grow(steps, n-1)
		for s := 0; s < n-1; s++ {
			steps = append(steps, both(ring.RankAt(mod(p-s)), ring.RankAt(mod(p-s-1)), false))
		}
		return steps
	case Broadcast, Reduce:
		c, to, from := mod(p-ring.PosOf(root)), next, prev
		if op == Reduce {
			c, to, from = n-1-c, prev, next
		}
		steps = slices.Grow(steps, n-1)[:n-1]
		for s := range steps {
			steps[s] = idle
		}
		off, l := span(0)
		if c < n-1 {
			steps[c].SendPeer, steps[c].SendOff, steps[c].SendLen = to, off, l
		}
		if c > 0 {
			st := &steps[c-1]
			st.RecvPeer, st.RecvOff, st.RecvLen, st.RecvReduce = from, off, l, op == Reduce
		}
		return steps
	default:
		panic(fmt.Sprintf("collective: unknown op %v", op))
	}
}

// lowerTree lowers the binomial-tree schedules. The paper implements
// ring AllReduce/AllGather and notes that "it is straightforward to
// implement other collective operations, P2P communication, and other
// algorithms (e.g., tree algorithms)" (§5); the tree is latency-optimal
// for small messages (2·ceil(log2 n) rounds versus the ring's 2(n-1)),
// which is why NCCL switches between tree and ring by message size — and
// why an MCCS provider wants both available when choosing strategies.
//
// Ranks are renumbered v = rank-root (mod n) so the root is 0. In reduce
// round i (mask = 1<<i), v sends its whole buffer to v-mask if bit i of
// v is set (and is then done), or receives-and-reduces from v+mask if
// that peer exists: after ceil(log2 n) rounds the root holds the sum.
// Broadcast is the same tree run backwards with copies instead of
// reductions; AllReduce is reduce-to-root followed by broadcast-from-root.
func lowerTree(steps []Step, op Op, n, rank, root int, count int64) []Step {
	v := ((rank-root)%n + n) % n
	unv := func(v int) int { return (v + root) % n }
	rounds := bits.Len(uint(n - 1))
	if op == AllReduce {
		rounds *= 2 // room for the broadcast half
	}
	steps = slices.Grow(steps, rounds)
	sent := false
	for mask := 1; mask < n; mask <<= 1 {
		st := idle
		switch {
		case sent:
		case v&mask != 0:
			st.SendPeer, st.SendLen = unv(v&^mask), count
			sent = true
		case v|mask < n:
			st.RecvPeer, st.RecvLen, st.RecvReduce = unv(v|mask), count, true
		}
		steps = append(steps, st)
	}
	// bcast is the broadcast round that undoes reduce round st.
	bcast := func(st Step) Step {
		b := idle
		if st.SendPeer >= 0 {
			b.RecvPeer, b.RecvLen = st.SendPeer, count
		}
		if st.RecvPeer >= 0 {
			b.SendPeer, b.SendLen = st.RecvPeer, count
		}
		return b
	}
	switch op {
	case Reduce:
	case Broadcast:
		slices.Reverse(steps)
		for i, st := range steps {
			steps[i] = bcast(st)
		}
	case AllReduce:
		for i := len(steps) - 1; i >= 0; i-- {
			steps = append(steps, bcast(steps[i]))
		}
	default:
		// The scatter/gather ops have no dense-tree form here.
		panic(fmt.Sprintf("collective: no tree schedule for %v", op))
	}
	return steps
}

// lowerHD lowers recursive halving-doubling AllReduce (Rabenseifner's
// algorithm) over the count elements starting at base — one channel's
// share of the buffer. The reduce-scatter phase recursively halves the
// exchanged span (log2 n rounds), the allgather phase recursively doubles
// it back — so the total traffic matches the ring (2·(n-1)/n of the
// buffer per rank) but the round count is 2·log2 n instead of 2·(n-1).
// That trade is why NCCL-class tuners pick halving-doubling at mid-sized
// messages: fewer latency terms than the ring, more bandwidth per round
// than the tree.
//
// Non-power-of-two rank counts use the standard fold: with p2 the
// largest power of two ≤ n and r = n - p2, the r extra ranks [p2, n)
// first fold their whole span into partner rank-p2 (reduce), idle
// through the core, and receive the finished result back in a final
// unfold round.
//
// Spans are cut on the shared boundary grid of Part(count, p2, ·), so the
// elements a rank sends in a round are exactly the ones its peer expects
// — including zero-length spans when count < p2.
func lowerHD(steps []Step, n, rank int, base, count int64) []Step {
	k := bits.Len(uint(n)) - 1
	p2 := 1 << k
	r := n - p2
	// span returns the elements between region boundaries lo and hi.
	span := func(lo, hi int) (off, l int64) {
		a, _ := Part(count, p2, lo)
		b, _ := Part(count, p2, hi)
		return base + a, b - a
	}
	send := func(peer, lo, hi int) Step {
		st := Step{SendPeer: peer, RecvPeer: -1}
		st.SendOff, st.SendLen = span(lo, hi)
		return st
	}
	recv := func(peer, lo, hi int, reduce bool) Step {
		st := Step{SendPeer: -1, RecvPeer: peer, RecvReduce: reduce}
		st.RecvOff, st.RecvLen = span(lo, hi)
		return st
	}
	rounds := 2 * k
	if r > 0 {
		rounds += 2 // fold and unfold
	}
	steps = slices.Grow(steps, rounds)
	// Fold: extras push their whole span into their partner.
	if r > 0 {
		switch {
		case rank >= p2:
			steps = append(steps, send(rank-p2, 0, p2))
		case rank < r:
			steps = append(steps, recv(rank+p2, 0, p2, true))
		default:
			steps = append(steps, idle)
		}
	}
	core := rank < p2
	lo, hi := 0, p2 // owned boundary range, in region indices

	// Recursive halving: reduce-scatter over the p2 participants.
	for mask := p2 >> 1; mask >= 1; mask >>= 1 {
		if !core {
			steps = append(steps, idle)
			continue
		}
		mid := (lo + hi) / 2
		keepLo, keepHi, sendLo, sendHi := lo, mid, mid, hi
		if rank&mask != 0 {
			keepLo, keepHi, sendLo, sendHi = mid, hi, lo, mid
		}
		st := send(rank^mask, sendLo, sendHi)
		st.RecvPeer, st.RecvReduce = rank^mask, true
		st.RecvOff, st.RecvLen = span(keepLo, keepHi)
		steps = append(steps, st)
		lo, hi = keepLo, keepHi
	}

	// Recursive doubling: allgather the finished regions back out.
	for mask := 1; mask < p2; mask <<= 1 {
		if !core {
			steps = append(steps, idle)
			continue
		}
		size := hi - lo
		recvLo, recvHi := hi, hi+size
		if rank&mask != 0 {
			recvLo, recvHi = lo-size, lo
		}
		st := send(rank^mask, lo, hi)
		st.RecvPeer = rank ^ mask
		st.RecvOff, st.RecvLen = span(recvLo, recvHi)
		steps = append(steps, st)
		if recvLo < lo {
			lo = recvLo
		} else {
			hi = recvHi
		}
	}

	// Unfold: partners return the finished result to the extras.
	if r > 0 {
		switch {
		case rank >= p2:
			steps = append(steps, recv(rank-p2, 0, p2, false))
		case rank < r:
			steps = append(steps, send(rank+p2, 0, p2))
		default:
			steps = append(steps, idle)
		}
	}
	return steps
}
