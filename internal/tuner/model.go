package tuner

import (
	"fmt"
	"slices"
	"time"

	"mccs/internal/collective"
	"mccs/internal/netsim"
	"mccs/internal/spec"
	"mccs/internal/topo"
)

// Model is the α-β cost model: per-round latency (α), per-byte transfer
// time (β, derived from link capacities under contention), and a fixed
// per-operation overhead. It is evaluated against the real cluster graph
// — the same equal-cost paths the proxy pins connections to — so the
// predicted ordering of candidates tracks what the packet-level
// simulation will actually measure.
type Model struct {
	// Cluster supplies the fabric graph and NIC affinities.
	Cluster *topo.Cluster
	// Alpha is the per-step/round latency: propagation plus the proxy's
	// per-message handling.
	Alpha time.Duration
	// Fixed is the per-operation overhead paid once regardless of
	// strategy: command dispatch, kernel launch, completion signaling.
	Fixed time.Duration
	// IntraBps is the intra-host channel bandwidth (bytes/sec) used for
	// same-host hops that never touch the fabric.
	IntraBps float64
	// ECMPDiscount (0 < d <= 1) penalizes unpinned connections for hash
	// collisions the model cannot see. 1 means "trust ECMP fully".
	ECMPDiscount float64
	// ExtLoad, when non-nil, returns the external (non-collective)
	// bytes/sec already consuming a link — background tenants' traffic,
	// which the provider can observe and the tenant cannot. Nil means an
	// idle fabric.
	ExtLoad func(netsim.LinkID) float64

	// ws is Predict's workspace, kept from one prediction to the next.
	ws *workspace
}

// DefaultModel returns a model with the stack's stock timing constants.
// The policy controller overrides the fields from the deployment's actual
// configuration before searching.
func DefaultModel(c *topo.Cluster) *Model {
	return &Model{
		Cluster:      c,
		Alpha:        8 * time.Microsecond,
		Fixed:        75 * time.Microsecond,
		IntraBps:     c.IntraHostBps,
		ECMPDiscount: 0.85,
	}
}

// conn is one directed transfer of a round of the modeled schedule: the
// edge it runs on and the route that edge is connected with (a pin
// index, or spec.RouteECMP).
type conn struct {
	collective.Edge
	route int
}

// minBps floors available capacity so a fully stolen link predicts "very
// slow", not a division by zero.
const minBps = 1.0

// workspace is what one prediction works in and the next one reuses: the
// strategy's rings, one lowered program at a time, the rounds' transfers
// and largest sizes, the pipelined connection set, and the per-link tables
// rates prices them with. Each slice is overwritten, not reallocated, once
// it has grown to the largest candidate's size.
type workspace struct {
	rings  []*collective.Ring
	steps  []collective.Step
	rounds [][]conn // rounds[s]: round s's transfers over all channels and ranks
	sizes  []int64  // sizes[s]: the largest of rounds[s], in elements
	all    []conn   // every connection of rounds, in first-seen order
	seen   []bool   // by (channel, from, to): the connection is in all; false between calls
	paths  [][][]netsim.LinkID
	out    []float64

	// load and own are dense by LinkID and zero between uses: loaded and
	// owned list the links a call made non-zero, and only those are reset.
	load, own     []float64
	loaded, owned []netsim.LinkID
}

// addLoad adds v (> 0) to l's entry of tab, noting l in touched the first
// time.
func addLoad(tab []float64, touched *[]netsim.LinkID, l netsim.LinkID, v float64) {
	if tab[l] == 0 {
		*touched = append(*touched, l)
	}
	tab[l] += v
}

// resetLoad zeroes the entries of tab that touched lists and empties it.
func resetLoad(tab []float64, touched *[]netsim.LinkID) {
	for _, l := range *touched {
		tab[l] = 0
	}
	*touched = (*touched)[:0]
}

// rates computes the bytes/sec each connection achieves when all conns
// run concurrently: links are loaded by every pinned path (weight 1) and
// every ECMP path (weight 1/npaths), then each conn is bottlenecked by
// the most loaded link on its path(s). This mirrors the max-min water
// fill of the simulator closely enough to rank strategies. The result is
// the workspace's, valid until the next call.
func (m *Model) rates(info *spec.CommInfo, conns []conn) []float64 {
	ws := m.ws
	if nl := m.Cluster.Net.NumLinks(); len(ws.load) < nl {
		ws.load, ws.own = make([]float64, nl), make([]float64, nl)
	}
	load := ws.load
	ws.paths = slices.Grow(ws.paths[:0], len(conns))[:len(conns)]
	for i, c := range conns {
		ws.paths[i] = nil
		a, b := info.Ranks[c.From], info.Ranks[c.To]
		if a.Host == b.Host {
			continue
		}
		ps := m.Cluster.PathsBetweenNICs(a.NIC, b.NIC)
		ws.paths[i] = ps
		if c.route >= 0 {
			for _, l := range ps[c.route%len(ps)] {
				addLoad(load, &ws.loaded, l, 1)
			}
		} else {
			w := 1.0 / float64(len(ps))
			for _, p := range ps {
				for _, l := range p {
					addLoad(load, &ws.loaded, l, w)
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
	out := slices.Grow(ws.out[:0], len(conns))[:len(conns)]
	ws.out = out
	for i, c := range conns {
		if ws.paths[i] == nil {
			out[i] = m.IntraBps
			continue
		}
		ps := ws.paths[i]
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
		own := ws.own
		for _, p := range ps {
			for _, l := range p {
				addLoad(own, &ws.owned, l, w)
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
		resetLoad(own, &ws.owned)
		out[i] = m.ECMPDiscount * sum / float64(len(ps))
	}
	resetLoad(load, &ws.loaded)
	return out
}

// Predict estimates the completion time of op (rooted at root, where it
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
//
// The programs are lowered one at a time into the model's workspace, and
// everything a prediction collects lives there too, so once the workspace
// has grown a prediction allocates nothing; a Model therefore serves one
// caller at a time.
func (m *Model) Predict(info *spec.CommInfo, st *spec.Strategy, op collective.Op, root int, bytes int64) time.Duration {
	n := info.NumRanks()
	if n <= 1 {
		return m.Fixed
	}
	if m.ws == nil {
		m.ws = new(workspace)
	}
	ws := m.ws
	rings, err := collective.Rings(ws.rings, st)
	if err != nil {
		panic(fmt.Sprintf("tuner: predicting an invalid strategy: %v", err))
	}
	ws.rings = rings
	count := bytes / 4 // float32 elements
	if op == collective.AllGather {
		count /= int64(n)
	}
	algo := collective.Select(st, op, n, root, bytes)

	// Every rank's program on every channel, in channel-major order; the
	// first one fixes the number of rounds and whether they pipeline.
	nch, nr := collective.Channels(algo, rings), rings[0].Size()
	var pipelined bool
	for ch := 0; ch < nch; ch++ {
		for rank := 0; rank < nr; rank++ {
			prog := collective.Lower(ws.steps, algo, op, rings, rank, ch, root, count)
			ws.steps = prog.Steps
			if ch == 0 && rank == 0 {
				pipelined = prog.Pipelined
				ws.startRounds(len(prog.Steps))
			}
			for s, step := range prog.Steps {
				if step.SendLen == 0 {
					continue
				}
				e := collective.Edge{Algo: algo, Channel: ch, From: rank, To: step.SendPeer}
				ws.rounds[s] = append(ws.rounds[s], conn{e, e.Route(st)})
				if step.SendLen > ws.sizes[s] {
					ws.sizes[s] = step.SendLen
				}
			}
		}
	}
	var pipelineRate float64
	if pipelined {
		// One algorithm per prediction, and a connection's route is its
		// edge's, so (channel, from, to) identifies a conn.
		ws.seen = slices.Grow(ws.seen[:0], nch*nr*nr)[:nch*nr*nr]
		key := func(c conn) int { return (c.Channel*nr+c.From)*nr + c.To }
		ws.all = ws.all[:0]
		for _, conns := range ws.rounds {
			for _, c := range conns {
				if k := key(c); !ws.seen[k] {
					ws.seen[k] = true
					ws.all = append(ws.all, c)
				}
			}
		}
		for _, c := range ws.all {
			ws.seen[key(c)] = false
		}
		pipelineRate = m.slowest(info, ws.all)
	}
	total := m.Fixed
	for s, conns := range ws.rounds {
		total += m.Alpha
		if len(conns) == 0 {
			continue
		}
		rate := pipelineRate
		if !pipelined {
			rate = m.slowest(info, conns)
		}
		total += seconds(float64(ws.sizes[s]*4) / rate)
	}
	return total
}

// startRounds empties the workspace's k rounds and their sizes, keeping
// each round's array.
func (ws *workspace) startRounds(k int) {
	ws.rounds = slices.Grow(ws.rounds[:0], k)[:k]
	for s := range ws.rounds {
		ws.rounds[s] = ws.rounds[s][:0]
	}
	ws.sizes = slices.Grow(ws.sizes[:0], k)[:k]
	clear(ws.sizes)
}

// slowest returns the rate of the slowest connection when all of conns
// run concurrently.
func (m *Model) slowest(info *spec.CommInfo, conns []conn) float64 {
	rs := m.rates(info, conns)
	min := rs[0]
	for _, r := range rs[1:] {
		if r < min {
			min = r
		}
	}
	return min
}

func seconds(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}
