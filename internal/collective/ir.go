package collective

import (
	"fmt"
	"slices"

	"mccs/internal/spec"
)

// The schedule IR. Every collective MCCS runs — whatever the algorithm —
// is lowered to one Program per (rank, channel): a list of rounds, each
// naming at most one send and one receive in resolved element ranges of
// the output buffer. The proxy interprets programs against real
// connections, the tuner prices them against the fabric graph, and the
// reference executor (internal/collectivetest) runs them over plain
// memory; none of the three knows which algorithm produced the steps, so
// adding an algorithm (or an op to an algorithm) is adding a lowering.

// Step is one round of one rank's program on one channel. Ranges are
// element offsets into the operation's output buffer, with the region
// layout and the channel split already applied. A peer with a zero
// length is a scheduled exchange that happens to carry nothing (a buffer
// with fewer elements than regions): no message is sent, but the round
// still belongs to the rank.
type Step struct {
	// SendPeer receives [SendOff, SendOff+SendLen); -1 if the rank does
	// not send this round.
	SendPeer         int
	SendOff, SendLen int64
	// RecvPeer supplies [RecvOff, RecvOff+RecvLen); -1 if the rank does
	// not receive this round.
	RecvPeer         int
	RecvOff, RecvLen int64
	// RecvReduce sums the received range into the local buffer instead
	// of overwriting it.
	RecvReduce bool
}

// Idle reports whether the rank sits the round out. Idle rounds keep
// every rank's program the same length, so a step's index is its round.
func (s Step) Idle() bool { return s.SendPeer < 0 && s.RecvPeer < 0 }

var idle = Step{SendPeer: -1, RecvPeer: -1}

// Program is the schedule one rank runs on one channel.
type Program struct {
	Steps []Step
	// Pipelined says consecutive rounds overlap: a step's range may be
	// cut into slices that stream independently, so a rank forwards
	// slice k of a round as soon as it holds slice k of the previous
	// one (NCCL's FIFO slots) and every connection of the program is
	// busy at once. The lowering sets it for ring schedules, whose long
	// dependency chains would otherwise stall a whole chunk on any
	// phase skew between ranks; tree and halving-doubling rounds are
	// barriers that move one message each.
	Pipelined bool
}

// Algo names a schedule family.
type Algo int

const (
	AlgoRing Algo = iota
	AlgoTree
	AlgoHD
)

var algoNames = [...]string{"ring", "tree", "hd"}

func (a Algo) String() string {
	if int(a) < len(algoNames) {
		return algoNames[a]
	}
	return fmt.Sprintf("Algo(%d)", int(a))
}

// Select picks the algorithm a communicator of n ranks runs op with, for
// bytes of output under strategy st. It is the only place the choice
// lives: the binomial tree for dense rooted collectives below the
// strategy's threshold (Broadcast/Reduce only at root 0, the tree Edges
// provisions), halving-doubling for AllReduce when the strategy selects
// it, the rings otherwise. Small messages prefer the tree even under
// spec.AlgoHD, which is how a tuner composes the two.
func Select(st *spec.Strategy, op Op, n, root int, bytes int64) Algo {
	if n <= 1 {
		return AlgoRing
	}
	if st.TreeThreshold > 0 && bytes < st.TreeThreshold {
		switch op {
		case AllReduce:
			return AlgoTree
		case Broadcast, Reduce:
			if root == 0 {
				return AlgoTree
			}
		}
	}
	if st.Algorithm == spec.AlgoHD && op == AllReduce {
		return AlgoHD
	}
	return AlgoRing
}

// Rings builds the ring of every channel of st over buf's rings, whatever
// they held; a new ring is allocated only for a channel buf has none for,
// so a caller that builds strategy after strategy keeps the returned
// slice and passes it back in. The returned rings are valid until then.
// nil allocates.
func Rings(buf []*Ring, st *spec.Strategy) ([]*Ring, error) {
	buf = slices.Grow(buf[:0], len(st.Channels))[:len(st.Channels)]
	for ci, ch := range st.Channels {
		if buf[ci] == nil {
			buf[ci] = new(Ring)
		}
		if err := buf[ci].set(ch.Order); err != nil {
			return nil, fmt.Errorf("channel %d: %w", ci, err)
		}
	}
	return buf, nil
}

// Channels returns how many channel programs a rank runs under algo: the
// tree moves whole small buffers on a single channel, the other
// algorithms split the buffer across the strategy's channels.
func Channels(algo Algo, rings []*Ring) int {
	if algo == AlgoTree {
		return 1
	}
	return len(rings)
}

// Lower returns the program rank runs on channel ch for op under algo.
// rings are the strategy's channel rings; count is the element count
// (the per-rank contribution for AllGather, the whole buffer otherwise);
// root is ignored by unrooted ops. A single-rank communicator has
// nothing to schedule and gets an empty program. Lowering an op the
// algorithm has no schedule for (Select never asks) panics.
//
// The program's steps are written over buf, whatever it held, and a new
// array is allocated only when buf's capacity is too small: a caller that
// lowers op after op keeps the returned Steps and passes them back in. The
// returned program is valid until then. nil allocates.
func Lower(buf []Step, algo Algo, op Op, rings []*Ring, rank, ch, root int, count int64) Program {
	n := rings[0].Size()
	buf = buf[:0]
	if n <= 1 {
		return Program{Steps: buf}
	}
	switch algo {
	case AlgoTree:
		return Program{Steps: lowerTree(buf, op, n, rank, root, count)}
	case AlgoHD:
		if op != AllReduce {
			panic(fmt.Sprintf("collective: no halving-doubling schedule for %v", op))
		}
		off, l := Part(count, len(rings), ch)
		return Program{Steps: lowerHD(buf, n, rank, off, l)}
	default:
		return Program{Steps: lowerRing(buf, op, rings[ch], rank, root, count, len(rings), ch), Pipelined: true}
	}
}

// Edge is one directed connection a strategy provisions: the connection
// From's programs of family Algo send on toward To on channel Channel.
type Edge struct {
	Algo     Algo
	Channel  int
	From, To int
}

// Key is the management-plane identity of the edge; edges of different
// families between the same ranks on the same channel share it.
func (e Edge) Key() spec.ConnKey {
	return spec.ConnKey{Channel: e.Channel, FromRank: e.From, ToRank: e.To}
}

// Route is the route the edge is connected with under st: ring and
// halving-doubling edges follow their channel's pin and any
// per-connection override; the tree belongs to no channel, so no pin
// applies and its edges are always left to ECMP.
func (e Edge) Route(st *spec.Strategy) int {
	if e.Algo == AlgoTree {
		return spec.RouteECMP
	}
	return st.RouteFor(e.Key())
}

// LabelChannel is the channel term of the edge's ECMP label. Families
// are kept apart so a tree or butterfly connection hashes independently
// of the ring connection between the same two ranks.
func (e Edge) LabelChannel() int {
	switch e.Algo {
	case AlgoTree:
		return 1 << 20
	case AlgoHD:
		return 1<<21 + e.Channel
	default:
		return e.Channel
	}
}

// Edges lists every connection strategy st needs, in the order a
// communicator establishes them: both directions of every channel's ring
// (by ring position), then the root-0 binomial tree if the strategy
// enables it, then every channel's butterfly if it selects
// halving-doubling. A family's edges are exactly the peers its AllReduce
// programs name — peer identity does not depend on the element count,
// and the other ops of a family use a subset.
func Edges(st *spec.Strategy, rings []*Ring) []Edge {
	var edges []Edge
	family := func(algo Algo) {
		for ch := 0; ch < Channels(algo, rings); ch++ {
			for i := 0; i < rings[0].Size(); i++ {
				rank := i
				if algo == AlgoRing {
					rank = rings[ch].RankAt(i)
				}
				mine := len(edges) // where this rank's edges start
				for _, s := range Lower(nil, algo, AllReduce, rings, rank, ch, 0, 0).Steps {
					for _, peer := range [2]int{s.SendPeer, s.RecvPeer} {
						e := Edge{Algo: algo, Channel: ch, From: rank, To: peer}
						if peer >= 0 && !contains(edges[mine:], e) {
							edges = append(edges, e)
						}
					}
				}
			}
		}
	}
	family(AlgoRing)
	if st.TreeThreshold > 0 {
		family(AlgoTree)
	}
	if st.Algorithm == spec.AlgoHD {
		family(AlgoHD)
	}
	return edges
}

func contains(edges []Edge, e Edge) bool {
	for _, have := range edges {
		if have == e {
			return true
		}
	}
	return false
}
