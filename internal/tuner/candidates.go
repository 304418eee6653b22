package tuner

import (
	"fmt"

	"mccs/internal/spec"
)

// Order is one base ring order under consideration, named for telemetry
// ("locality", "locality-rev", "rank").
type Order struct {
	Name  string
	Ranks []int
}

// Space bounds the candidate enumeration. The caller (the policy
// controller) supplies the base orders — typically the locality ring,
// its reversal and plain rank order — because deriving good orders from
// rack/host placement is policy knowledge, not tuner knowledge.
type Space struct {
	Orders      []Order
	MaxChannels int
	// Pins lists the route modes to try: false = ECMP, true = pinned
	// (channel c on path c). Empty means ECMP only.
	Pins []bool
	// HD includes halving-doubling AllReduce candidates.
	HD bool
	// Tree includes a binomial-tree candidate sized to the tuned op
	// (threshold just above its byte count).
	Tree bool
}

// Candidates enumerates the strategy candidates for a communicator in a
// fixed, deterministic order. bytes is the tuned operation's output size
// and only shapes the tree candidate's threshold. Duplicate orders (e.g.
// locality == rank order on a contiguous allocation) are dropped so the
// search never scores the same strategy twice under different names.
func Candidates(info *spec.CommInfo, sp Space, bytes int64) []Candidate {
	orders := dedupOrders(sp.Orders)
	pins := sp.Pins
	if len(pins) == 0 {
		pins = []bool{false}
	}
	maxCh := sp.MaxChannels
	if maxCh < 1 {
		maxCh = 1
	}

	build := func(base []int, nch int, pin bool, algo spec.Algorithm) spec.Strategy {
		st := spec.RingStrategy(base, info.Ranks, nch, pin)
		st.Algorithm = algo
		return st
	}
	pinName := func(pin bool) string {
		if pin {
			return "pin"
		}
		return "ecmp"
	}

	var out []Candidate
	for _, o := range orders {
		for nch := 1; nch <= maxCh; nch++ {
			for _, pin := range pins {
				out = append(out, Candidate{
					Name:     fmt.Sprintf("ring/%s/ch%d/%s", o.Name, nch, pinName(pin)),
					Strategy: build(o.Ranks, nch, pin, spec.AlgoRing),
				})
			}
		}
	}
	if sp.HD && len(orders) > 0 {
		// Halving-doubling pairs ranks by XOR, so the ring order only
		// shapes channel striping; one base order suffices.
		for nch := 1; nch <= maxCh; nch++ {
			for _, pin := range pins {
				out = append(out, Candidate{
					Name:     fmt.Sprintf("hd/ch%d/%s", nch, pinName(pin)),
					Strategy: build(orders[0].Ranks, nch, pin, spec.AlgoHD),
				})
			}
		}
	}
	if sp.Tree && len(orders) > 0 && bytes > 0 {
		st := build(orders[0].Ranks, 1, false, spec.AlgoRing)
		// Threshold just above the tuned size: "ops this large and
		// smaller take the tree". Larger future ops fall back to rings.
		st.TreeThreshold = bytes + 1
		out = append(out, Candidate{Name: "tree", Strategy: st})
	}
	return out
}

func dedupOrders(in []Order) []Order {
	var out []Order
	seen := make(map[string]bool)
	for _, o := range in {
		key := fmt.Sprint(o.Ranks)
		if seen[key] || len(o.Ranks) == 0 {
			continue
		}
		seen[key] = true
		out = append(out, o)
	}
	return out
}
