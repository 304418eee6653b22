// Package collectivetest is test support for the schedule IR: the
// reference executor that runs lowered programs over plain in-memory
// buffers, the schedule-free oracle it is held to, and the constructors
// those tests build their inputs with. The differential tests of
// internal/collective, the proxy's executor tests, the tuner's reference
// cost model, the chaos script's pinned reference and the root schedule
// goldens share it; only test files import it.
package collectivetest

import (
	"fmt"

	"mccs/internal/collective"
	"mccs/internal/spec"
)

// NewRing builds a ring from a permutation of [0, n). order[i] is the rank
// at ring position i; data flows from position i to position i+1 (mod n).
func NewRing(order []int) (*collective.Ring, error) {
	rings, err := collective.Rings(nil, &spec.Strategy{Channels: []spec.ChannelSpec{{Order: order}}})
	if err != nil {
		return nil, err
	}
	return rings[0], nil
}

// Regions splits count elements into n contiguous regions, region i
// covering [starts[i], starts[i]+lens[i]): collective.Part for every i.
func Regions(count int64, n int) (starts, lens []int64) {
	starts = make([]int64, n)
	lens = make([]int64, n)
	for i := range starts {
		starts[i], lens[i] = collective.Part(count, n, i)
	}
	return starts, lens
}

// LowerAll lowers every channel and rank: progs[ch][rank].
func LowerAll(algo collective.Algo, op collective.Op, rings []*collective.Ring, root int, count int64) [][]collective.Program {
	progs := make([][]collective.Program, collective.Channels(algo, rings))
	for ch := range progs {
		progs[ch] = make([]collective.Program, rings[0].Size())
		for rank := range progs[ch] {
			progs[ch][rank] = collective.Lower(nil, algo, op, rings, rank, ch, root, count)
		}
	}
	return progs
}

// Oracle computes the mathematically expected per-rank results of op by
// straight sequential reduction/gathering — no schedule at all. It is
// the ground truth the differential tests hold every algorithm (ring,
// binomial tree, halving-doubling) to: algorithm choice may change
// timing, never data.
//
// Output shapes match Execute's contract. For Reduce, non-root
// outputs are the unchanged inputs (the collective leaves them
// unspecified; callers compare only the root).
func Oracle(op collective.Op, root int, inputs [][]float32) ([][]float32, error) {
	n := len(inputs)
	if n == 0 {
		return nil, fmt.Errorf("collective: oracle over empty communicator")
	}
	count := int64(len(inputs[0]))
	for r, in := range inputs {
		if int64(len(in)) != count {
			return nil, fmt.Errorf("collective: rank %d input length %d, want %d", r, len(in), count)
		}
	}
	sum := make([]float32, count)
	for _, in := range inputs {
		for i, v := range in {
			sum[i] += v
		}
	}
	out := make([][]float32, n)
	switch op {
	case collective.AllReduce:
		for r := range out {
			out[r] = append([]float32(nil), sum...)
		}
	case collective.ReduceScatter:
		starts, lens := Regions(count, n)
		for r := range out {
			out[r] = make([]float32, count)
			copy(out[r][starts[r]:starts[r]+lens[r]], sum[starts[r]:starts[r]+lens[r]])
		}
	case collective.AllGather:
		cat := make([]float32, 0, count*int64(n))
		for _, in := range inputs {
			cat = append(cat, in...)
		}
		for r := range out {
			out[r] = append([]float32(nil), cat...)
		}
	case collective.Broadcast:
		for r := range out {
			out[r] = append([]float32(nil), inputs[root]...)
		}
	case collective.Reduce:
		for r := range out {
			if r == root {
				out[r] = append([]float32(nil), sum...)
			} else {
				out[r] = append([]float32(nil), inputs[r]...)
			}
		}
	default:
		return nil, fmt.Errorf("collective: oracle: unknown op %v", op)
	}
	return out, nil
}

// Execute runs the programs progs[ch][rank] of op round-synchronously
// over plain in-memory buffers and returns the per-rank results. It
// exists so tests can prove schedule correctness independent of the
// transport and GPU layers: if this executor produces the oracle's
// results for every lowering, and the proxy interprets the same steps,
// the system computes correct collectives. It also checks what the
// proxy's blocking receives rely on: within a round every send is
// consumed by exactly one receive of equal length on the named peer.
//
// Buffer shapes per op (count = elements per rank's input):
//   - AllReduce: inputs[r] has count elements; result[r] = elementwise sum.
//   - ReduceScatter: inputs[r] has count elements; result[r] holds only
//     region r (rank-indexed) of the sum, at that region's offset.
//   - AllGather: inputs[r] has count elements; result[r] has n*count with
//     rank k's contribution at span k.
//   - Broadcast: inputs[root] propagates to every rank.
//   - Reduce: result[root] = elementwise sum; other ranks unspecified.
func Execute(op collective.Op, progs [][]collective.Program, inputs [][]float32) ([][]float32, error) {
	n := len(inputs)
	if n == 0 {
		return nil, fmt.Errorf("collective: execute over empty communicator")
	}
	count := len(inputs[0])
	work := make([][]float32, n)
	for r, in := range inputs {
		if len(in) != count {
			return nil, fmt.Errorf("collective: rank %d input length %d, want %d", r, len(in), count)
		}
		if op == collective.AllGather {
			work[r] = make([]float32, count*n)
			copy(work[r][r*count:], in)
		} else {
			work[r] = append([]float32(nil), in...)
		}
	}
	// span bounds-checks a step range against rank r's buffer.
	span := func(r int, off, l int64) ([]float32, error) {
		if off < 0 || l < 0 || off+l > int64(len(work[r])) {
			return nil, fmt.Errorf("rank %d range [%d,+%d) outside buffer of %d", r, off, l, len(work[r]))
		}
		return work[r][off : off+l], nil
	}

	// sent[r] is rank r's send snapshot of the current round, valid while
	// sending[r]; the buffers are reused from round to round.
	sent := make([][]float32, n)
	sending := make([]bool, n)
	for ch, ranks := range progs {
		if len(ranks) != n {
			return nil, fmt.Errorf("collective: channel %d has %d programs for %d ranks", ch, len(ranks), n)
		}
		rounds := len(ranks[0].Steps)
		for r, prog := range ranks {
			if len(prog.Steps) != rounds {
				return nil, fmt.Errorf("collective: channel %d rank %d has %d rounds, want %d", ch, r, len(prog.Steps), rounds)
			}
		}
		for s := 0; s < rounds; s++ {
			fail := func(format string, a ...any) error {
				return fmt.Errorf("collective: channel %d round %d: %s", ch, s, fmt.Sprintf(format, a...))
			}
			// Snapshot sends before applying receives so that simultaneous
			// transfers within a round use pre-round data.
			for r := range ranks {
				st := ranks[r].Steps[s]
				sending[r] = st.SendPeer >= 0
				if !sending[r] {
					continue
				}
				src, err := span(r, st.SendOff, st.SendLen)
				if err != nil {
					return nil, fail("send: %v", err)
				}
				sent[r] = append(sent[r][:0], src...)
			}
			for r := range ranks {
				st := ranks[r].Steps[s]
				if st.RecvPeer < 0 {
					continue
				}
				if st.RecvPeer >= n || !sending[st.RecvPeer] || ranks[st.RecvPeer].Steps[s].SendPeer != r {
					return nil, fail("rank %d receives from %d, which does not send to it", r, st.RecvPeer)
				}
				data := sent[st.RecvPeer]
				if int64(len(data)) != st.RecvLen {
					return nil, fail("rank %d expects %d elements from %d, got %d", r, st.RecvLen, st.RecvPeer, len(data))
				}
				dst, err := span(r, st.RecvOff, st.RecvLen)
				if err != nil {
					return nil, fail("recv: %v", err)
				}
				if st.RecvReduce {
					for i := range dst {
						dst[i] += data[i]
					}
				} else {
					copy(dst, data)
				}
			}
			for r := range ranks {
				if to := ranks[r].Steps[s].SendPeer; to >= 0 && (to >= n || ranks[to].Steps[s].RecvPeer != r) {
					return nil, fail("rank %d sends to %d, which does not receive from it", r, to)
				}
			}
		}
	}

	// For ReduceScatter, blank out the regions a rank does not own so
	// tests cannot accidentally rely on partial garbage.
	if op == collective.ReduceScatter {
		for r := range work {
			off, l := collective.Part(int64(count), n, r)
			for i := range work[r] {
				if int64(i) < off || int64(i) >= off+l {
					work[r][i] = 0
				}
			}
		}
	}
	return work, nil
}
