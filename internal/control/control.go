// Package control implements the per-communicator control ring: the
// TCP-based rank-0-rooted exchange NCCL builds at init, which MCCS reuses
// as the barrier substrate of its reconfiguration protocol (paper §4.2).
//
// Control messages are tiny, so they bypass the flow-level fabric and are
// modeled with a fixed per-hop latency. What matters for the protocol is
// the ordering and completion semantics of the ring AllGather, which are
// implemented exactly: a rank's AllGather completes only after every rank
// has contributed, and the result is identical at every rank.
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

// AllGather contributes val as rank's element and blocks until the full
// vector is known. Every rank must call it once per generation; calls block
// until all peers participate (the barrier property the reconfiguration
// protocol relies on).
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
func (r *Ring) AllGather(p *sim.Proc, rank int, val int64) []int64 {
	if rank < 0 || rank >= r.n {
		panic(fmt.Sprintf("control: rank %d out of range [0,%d)", rank, r.n))
	}
	out := make([]int64, r.n)
	for i := range out {
		out[i] = noValue
	}
	out[rank] = val
	if r.n == 1 {
		return out
	}
	r.epoch[rank]++
	ep := r.epoch[rank]
	next := (rank + 1) % r.n
	r.send(next, ctrlMsg{slot: rank, val: val, hops: 1, epoch: ep})
	for recvd := 0; recvd < r.n-1; recvd++ {
		m := r.pop(p, rank, ep)
		out[m.slot] = m.val
		if m.hops < r.n-1 {
			r.send(next, ctrlMsg{slot: m.slot, val: m.val, hops: m.hops + 1, epoch: ep})
		}
	}
	return out
}

const noValue = int64(-1 << 62)

// pop returns the next message of the given barrier epoch for rank,
// stashing messages from barriers rank has not entered yet (a fast
// successor can start the protocol's second barrier while we are still
// in the first). Past-epoch messages cannot arrive: exactly n-1 messages
// target each rank per epoch and all were consumed before that call
// returned.
func (r *Ring) pop(p *sim.Proc, rank int, ep uint64) ctrlMsg {
	for i, m := range r.stash[rank] {
		if m.epoch == ep {
			r.stash[rank] = append(r.stash[rank][:i], r.stash[rank][i+1:]...)
			return m
		}
	}
	for {
		m := r.in[rank].Pop(p)
		if m.epoch == ep {
			return m
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
