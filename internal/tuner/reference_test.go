package tuner

import (
	"fmt"
	"time"

	"mccs/internal/collective"
	"mccs/internal/netsim"
	"mccs/internal/spec"
)

// referencePredict, referenceRates and referenceSlowest are the cost model
// as it was before Predict ran in a reused workspace: every program
// lowered at once through collective.LowerAll, the link loads and each
// ECMP connection's own share kept in maps, the pipelined connection set
// deduplicated through a map. They are kept here, unchanged apart from
// their names, as the oracle TestPredictMatchesReference and FuzzPredict
// compare Predict with bit for bit.

// referenceRates computes the bytes/sec each connection achieves when all conns
// run concurrently: links are loaded by every pinned path (weight 1) and
// every ECMP path (weight 1/npaths), then each conn is bottlenecked by
// the most loaded link on its path(s). This mirrors the max-min water
// fill of the simulator closely enough to rank strategies.
func (m *Model) referenceRates(info *spec.CommInfo, conns []conn) []float64 {
	load := make(map[netsim.LinkID]float64)
	paths := make([][][]netsim.LinkID, len(conns))
	for i, c := range conns {
		a, b := info.Ranks[c.From], info.Ranks[c.To]
		if a.Host == b.Host {
			continue
		}
		ps := m.Cluster.PathsBetweenNICs(a.NIC, b.NIC)
		paths[i] = ps
		if c.route >= 0 {
			for _, l := range ps[c.route%len(ps)] {
				load[l]++
			}
		} else {
			w := 1.0 / float64(len(ps))
			for _, p := range ps {
				for _, l := range p {
					load[l] += w
				}
			}
		}
	}
	avail := func(l netsim.LinkID) float64 {
		a := m.Cluster.Net.Link(l).Capacity
		if m.ExtLoad != nil {
			a -= m.ExtLoad(l)
		}
		if a < minBps {
			a = minBps
		}
		return a
	}
	out := make([]float64, len(conns))
	for i, c := range conns {
		if paths[i] == nil {
			out[i] = m.IntraBps
			continue
		}
		ps := paths[i]
		if c.route >= 0 {
			p := ps[c.route%len(ps)]
			r := 1e300
			for _, l := range p {
				if v := avail(l) / load[l]; v < r {
					r = v
				}
			}
			out[i] = r
			continue
		}
		// ECMP: expected rate over hash outcomes. Conditioned on landing
		// on path p, the conn loads p's links with weight 1 while every
		// other conn stays at its expected share; averaging the resulting
		// bottleneck over paths prices in the self-collisions a plain
		// expected-share load washes out (two flows hashed onto two
		// uplinks really do collide half the time). The residual discount
		// covers imbalance the expectation still can't see.
		w := 1.0 / float64(len(ps))
		own := make(map[netsim.LinkID]float64, 8)
		for _, p := range ps {
			for _, l := range p {
				own[l] += w
			}
		}
		sum := 0.0
		for _, p := range ps {
			r := 1e300
			for _, l := range p {
				if v := avail(l) / (load[l] - own[l] + 1); v < r {
					r = v
				}
			}
			sum += r
		}
		out[i] = m.ECMPDiscount * sum / float64(len(ps))
	}
	return out
}

// referencePredict estimates the completion time of op (rooted at root, where it
// has one) moving bytes (output bytes, as in AlgBW) under strategy st. It
// prices the very programs the proxy will interpret — the algorithm
// collective.Select picks, lowered by collective.Lower, over the routes
// collective.Edges connects — as Σ over rounds of α + the round's largest
// transfer at the rate of its slowest concurrent connection.
//
// Which connections are concurrent is the program's Pipelined property:
// barrier rounds (tree, halving-doubling) load the fabric with their own
// transfers only, while a pipelined ring streams slices of consecutive
// rounds at once, so every connection the program ever uses shares the
// fabric in every round. Ring rounds all move one region of (nearly) the
// same size over that one set, which is why this equals the familiar
// steps × (α + stepBytes / min-rate of the slowest channel).
func (m *Model) referencePredict(info *spec.CommInfo, st *spec.Strategy, op collective.Op, root int, bytes int64) time.Duration {
	n := info.NumRanks()
	if n <= 1 {
		return m.Fixed
	}
	rings, err := collective.Rings(nil, st)
	if err != nil {
		panic(fmt.Sprintf("tuner: predicting an invalid strategy: %v", err))
	}
	count := bytes / 4 // float32 elements
	if op == collective.AllGather {
		count /= int64(n)
	}
	algo := collective.Select(st, op, n, root, bytes)
	progs := collective.LowerAll(algo, op, rings, root, count)

	// rounds[s] holds round s's transfers over all channels and ranks,
	// sizes[s] the largest of them in elements.
	rounds := make([][]conn, len(progs[0][0].Steps))
	sizes := make([]int64, len(rounds))
	for ch, ranks := range progs {
		for rank, prog := range ranks {
			for s, step := range prog.Steps {
				if step.SendLen == 0 {
					continue
				}
				e := collective.Edge{Algo: algo, Channel: ch, From: rank, To: step.SendPeer}
				rounds[s] = append(rounds[s], conn{e, e.Route(st)})
				if step.SendLen > sizes[s] {
					sizes[s] = step.SendLen
				}
			}
		}
	}
	pipelined := progs[0][0].Pipelined
	var pipelineRate float64
	if pipelined {
		var all []conn
		seen := make(map[conn]bool)
		for _, conns := range rounds {
			for _, c := range conns {
				if !seen[c] {
					seen[c] = true
					all = append(all, c)
				}
			}
		}
		pipelineRate = m.referenceSlowest(info, all)
	}
	total := m.Fixed
	for s, conns := range rounds {
		total += m.Alpha
		if len(conns) == 0 {
			continue
		}
		rate := pipelineRate
		if !pipelined {
			rate = m.referenceSlowest(info, conns)
		}
		total += seconds(float64(sizes[s]*4) / rate)
	}
	return total
}

// referenceSlowest returns the rate of the slowest connection when all of conns
// run concurrently.
func (m *Model) referenceSlowest(info *spec.CommInfo, conns []conn) float64 {
	rs := m.referenceRates(info, conns)
	min := rs[0]
	for _, r := range rs[1:] {
		if r < min {
			min = r
		}
	}
	return min
}
