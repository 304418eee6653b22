// Package control implements the per-communicator control ring: the
// TCP-based rank-0-rooted exchange NCCL builds at init, which MCCS reuses
// as the barrier substrate of its reconfiguration protocol (paper §4.2).
//
// Control messages are tiny, so they bypass the flow-level fabric and are
// modeled with a fixed per-hop latency. What matters for the protocol is
// the ordering and completion semantics of the ring AllGather, which are
// implemented exactly: a rank's AllGather completes only after every rank
// has contributed, and the result is identical at every rank. A rank runs
// its part as a step function (sim.Scheduler.GoStep) would: Begin, then
// Park until it reports done.
package control

import (
	"fmt"
	"time"

	"mccs/internal/sim"
)

// Ring is the control ring of one communicator.
type Ring struct {
	s      *sim.Scheduler
	n      int
	hopLat time.Duration
	// in[r] receives messages forwarded by rank r's predecessor.
	in []*sim.Queue[ctrlMsg]
	// epoch[r] counts rank r's AllGather calls; messages are tagged with
	// their barrier's epoch so back-to-back barriers (the reconfiguration
	// protocol runs two) cannot bleed into each other.
	epoch []uint64
	// stash[r] holds messages that arrived for a barrier rank r has not
	// entered yet.
	stash [][]ctrlMsg
}

// ctrlMsg is one hop of an AllGather: slot's contributed value, how many
// hops it has traveled from its owner, and the barrier epoch it belongs
// to.
type ctrlMsg struct {
	slot  int
	val   int64
	hops  int
	epoch uint64
}

// NewRing builds an n-rank control ring with the given per-hop message
// latency.
func NewRing(s *sim.Scheduler, n int, hopLatency time.Duration) (*Ring, error) {
	if n < 1 {
		return nil, fmt.Errorf("control: ring size %d", n)
	}
	r := &Ring{
		s: s, n: n, hopLat: hopLatency,
		in:    make([]*sim.Queue[ctrlMsg], n),
		epoch: make([]uint64, n),
		stash: make([][]ctrlMsg, n),
	}
	for i := range r.in {
		r.in[i] = sim.NewQueue[ctrlMsg]()
	}
	return r, nil
}

// Gather is one rank's AllGather in progress: Begin starts it, Park moves
// it forward. Out is the gathered vector, complete once Park reports done;
// it is a fresh slice per barrier, so a caller may keep it.
type Gather struct {
	Out   []int64
	rank  int
	epoch uint64 // the barrier's epoch at rank
	recvd int    // messages of this barrier taken off rank's inbox
}

// Begin contributes val as rank's element of a new AllGather and sends it
// on. Every rank must begin once per generation, and no rank's gather
// completes until all peers have begun (the barrier property the
// reconfiguration protocol relies on). The caller then calls Park until it
// reports done.
//
// The implementation is the standard ring allgather, but forwarding is
// content-driven rather than round-indexed: a rank forwards each message
// it actually received (until the message has made its n-1 hops) instead
// of forwarding the slot a round counter says it should know by now. With
// nonzero per-hop jitter the two are equivalent; under an adversarial
// event schedule same-instant deliveries can arrive permuted, and
// round-indexed forwarding would propagate unfilled slots. Each slot's
// value visits every other rank exactly once either way, so message
// counts and pacing are identical on the unperturbed schedule.
func (r *Ring) Begin(g *Gather, rank int, val int64) {
	if rank < 0 || rank >= r.n {
		panic(fmt.Sprintf("control: rank %d out of range [0,%d)", rank, r.n))
	}
	out := make([]int64, r.n)
	for i := range out {
		out[i] = noValue
	}
	out[rank] = val
	*g = Gather{Out: out, rank: rank}
	if r.n == 1 {
		return
	}
	r.epoch[rank]++
	g.epoch = r.epoch[rank]
	r.send((rank+1)%r.n, ctrlMsg{slot: rank, val: val, hops: 1, epoch: g.epoch})
}

// Park takes every message of g's barrier that has reached its rank,
// forwarding each on, and reports whether g.Out is complete. When it is
// not, p is parked on the rank's inbox (sim.Queue.Park): the step function
// must return false and call Park again once dispatched.
func (r *Ring) Park(p *sim.Proc, g *Gather) (done bool) {
	next := (g.rank + 1) % r.n
	for g.recvd < r.n-1 {
		m, ok := r.pop(g.rank, g.epoch)
		if !ok {
			r.in[g.rank].Park(p)
			return false
		}
		g.Out[m.slot] = m.val
		g.recvd++
		if m.hops < r.n-1 {
			r.send(next, ctrlMsg{slot: m.slot, val: m.val, hops: m.hops + 1, epoch: g.epoch})
		}
	}
	return true
}

const noValue = int64(-1 << 62)

// pop returns the next message of the given barrier epoch for rank that
// has arrived, and false when none has, stashing messages from barriers
// rank has not entered yet (a fast successor can start the protocol's
// second barrier while we are still in the first). Past-epoch messages
// cannot arrive: exactly n-1 messages target each rank per epoch and all
// were consumed before that gather completed.
func (r *Ring) pop(rank int, ep uint64) (ctrlMsg, bool) {
	for i, m := range r.stash[rank] {
		if m.epoch == ep {
			r.stash[rank] = append(r.stash[rank][:i], r.stash[rank][i+1:]...)
			return m, true
		}
	}
	for {
		m, ok := r.in[rank].TryPop()
		if !ok || m.epoch == ep {
			return m, ok
		}
		r.stash[rank] = append(r.stash[rank], m)
	}
}

func (r *Ring) send(to int, m ctrlMsg) {
	r.s.After(r.hopLat, func() { r.in[to].Push(r.s, m) })
}

// Max is a convenience for the reconfiguration protocol: the maximum over
// an AllGather result.
func Max(vals []int64) int64 {
	m := vals[0]
	for _, v := range vals[1:] {
		if v > m {
			m = v
		}
	}
	return m
}
