// Package spec holds the shared vocabulary between the MCCS service, the
// proxy/transport engines and the provider-side policies: communicator
// descriptions and collective strategies. Keeping these types in a leaf
// package lets policy code take communicator descriptions (CommInfo) and
// return Strategies without importing the engines (the paper's
// policy/mechanism split).
package spec

import (
	"fmt"

	"mccs/internal/topo"
)

// AppID identifies a tenant application.
type AppID string

// CommID identifies a communicator cluster-wide.
type CommID int

// RankInfo locates one rank of a communicator on the cluster.
type RankInfo struct {
	Rank int
	GPU  topo.GPUID
	Host topo.HostID
	NIC  topo.NICID
}

// ChannelSpec configures one channel (one ring) of a communicator. Every
// channel carries an equal share of each collective's bytes.
type ChannelSpec struct {
	// Order is the ring order in rank space: Order[pos] = rank.
	Order []int
	// Route selects which of the equal-cost fabric paths this channel's
	// inter-host connections are pinned to (index into PathsBetweenNICs,
	// applied modulo the path count). RouteECMP leaves the choice to
	// ECMP hashing, as the NCCL baseline does.
	Route int
}

// RouteECMP as a ChannelSpec.Route or Strategy.Routes value means "do not
// pin; let ECMP hash the connection onto a path".
const RouteECMP = -1

// ConnKey identifies one directed inter-host connection of a communicator
// for per-connection route overrides.
type ConnKey struct {
	Channel  int
	FromRank int
	ToRank   int
}

// Algorithm selects the dense AllReduce algorithm a strategy executes
// for messages above the tree threshold.
type Algorithm int

const (
	// AlgoRing is the default: ring AllReduce over the strategy's
	// channels, 2(n-1) steps.
	AlgoRing Algorithm = iota
	// AlgoHD is recursive halving-doubling (Rabenseifner): ring-class
	// traffic in 2·log2(n)-class rounds. Applies to AllReduce; other
	// ops keep their ring schedules.
	AlgoHD
)

var algorithmNames = [...]string{"ring", "hd"}

func (a Algorithm) String() string {
	if int(a) < len(algorithmNames) {
		return algorithmNames[a]
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// Strategy is the provider-chosen collective configuration of one
// communicator: the ring order and route of every channel, plus optional
// per-connection route overrides (the FFA output).
type Strategy struct {
	Channels []ChannelSpec
	// Routes overrides the channel route for individual connections;
	// missing keys fall back to the ChannelSpec.
	Routes map[ConnKey]int
	// TreeThreshold, when positive, runs dense rooted collectives
	// (AllReduce/Broadcast/Reduce) smaller than this many output bytes
	// on a binomial tree instead of the rings: 2·ceil(log2 n) rounds
	// instead of 2(n-1) steps, the latency/bandwidth trade NCCL also
	// makes. Zero disables tree collectives.
	TreeThreshold int64
	// Algorithm selects the dense AllReduce schedule (ring by default,
	// halving-doubling when AlgoHD). Channel count and routes apply to
	// either: halving-doubling splits the buffer across channels exactly
	// like the rings do, and channel c's inter-host connections use
	// channel c's route pin.
	Algorithm Algorithm
}

// RouteFor resolves the route index for a connection.
func (s *Strategy) RouteFor(k ConnKey) int {
	if r, ok := s.Routes[k]; ok {
		return r
	}
	if k.Channel < len(s.Channels) {
		return s.Channels[k.Channel].Route
	}
	return RouteECMP
}

// Clone deep-copies the strategy.
func (s *Strategy) Clone() Strategy {
	c := Strategy{
		Channels:      make([]ChannelSpec, len(s.Channels)),
		TreeThreshold: s.TreeThreshold,
		Algorithm:     s.Algorithm,
	}
	for i, ch := range s.Channels {
		c.Channels[i] = ChannelSpec{Order: append([]int(nil), ch.Order...), Route: ch.Route}
	}
	if s.Routes != nil {
		c.Routes = make(map[ConnKey]int, len(s.Routes))
		for k, v := range s.Routes {
			c.Routes[k] = v
		}
	}
	return c
}

// Reversed returns the strategy with every channel's ring running the
// other way round — the Fig. 7 move that routes around a loaded
// direction. Tree threshold, algorithm and channel route pins carry
// over; per-connection Routes do not, because they name directed
// connections that the reversed rings no longer have.
func (s *Strategy) Reversed() Strategy {
	r := s.Clone()
	r.Routes = nil
	for _, ch := range r.Channels {
		order := ch.Order
		for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
			order[i], order[j] = order[j], order[i]
		}
	}
	return r
}

// Validate checks the strategy against a communicator size.
func (s *Strategy) Validate(nranks int) error {
	if nranks < 1 {
		return fmt.Errorf("spec: communicator of %d ranks", nranks)
	}
	if len(s.Channels) == 0 {
		return fmt.Errorf("spec: strategy has no channels")
	}
	for ci, ch := range s.Channels {
		if len(ch.Order) != nranks {
			return fmt.Errorf("spec: channel %d ring has %d ranks, want %d", ci, len(ch.Order), nranks)
		}
		seen := make([]bool, nranks)
		for _, r := range ch.Order {
			if r < 0 || r >= nranks || seen[r] {
				return fmt.Errorf("spec: channel %d ring is not a permutation", ci)
			}
			seen[r] = true
		}
		if ch.Route < RouteECMP {
			return fmt.Errorf("spec: channel %d route %d", ci, ch.Route)
		}
	}
	for k, r := range s.Routes {
		if r < RouteECMP {
			return fmt.Errorf("spec: connection %+v route %d", k, r)
		}
	}
	if s.Algorithm != AlgoRing && s.Algorithm != AlgoHD {
		return fmt.Errorf("spec: unknown algorithm %d", int(s.Algorithm))
	}
	return nil
}

// CommInfo is the management-plane view of one communicator, consumed by
// the external controller's policies.
type CommInfo struct {
	ID       CommID
	App      AppID
	Ranks    []RankInfo
	Strategy Strategy
	// Priority is the provider-assigned QoS class (higher = more
	// important); policies such as PFA consume it.
	Priority int
}

// NumRanks returns the communicator size.
func (c *CommInfo) NumRanks() int { return len(c.Ranks) }

// StripeChannelOrders derives per-channel ring orders from a base order:
// channel c rotates each host-contiguous segment of the base order by c,
// so consecutive channels put a different GPU (and therefore a different
// affinity NIC) at each host boundary. With one ring per NIC this spreads
// inter-host traffic across all of a host's NICs — NCCL's multi-channel
// NIC striping, which both MCCS and the baseline get. ranks[r].Host is
// rank r's host.
//
// The orders are capped windows of one array: two allocations per call,
// whatever the channel count.
func StripeChannelOrders(base []int, ranks []RankInfo, nch int) [][]int {
	n := len(base)
	out := make([][]int, nch)
	backing := make([]int, nch*n)
	for c := range out {
		out[c] = backing[c*n : (c+1)*n : (c+1)*n]
	}
	// Rotate each host-contiguous segment [start, end) of the base order.
	for start := 0; start < n; {
		end := start + 1
		for end < n && ranks[base[end]].Host == ranks[base[start]].Host {
			end++
		}
		for c, order := range out {
			for k := start; k < end; k++ {
				order[k] = base[start+(k-start+c)%(end-start)]
			}
		}
		start = end
	}
	return out
}

// RingStrategy returns the ring strategy of nch channels over base, striped
// across each host's NICs (StripeChannelOrders). Channel c is pinned to
// equal-cost path c when pinned is set and routed by ECMP otherwise. The
// strategy providers and the flow-level cluster simulation all lay their
// rings out here and differ only in base order and channel count;
// TreeThreshold and Algorithm are the caller's to set.
func RingStrategy(base []int, ranks []RankInfo, nch int, pinned bool) Strategy {
	orders := StripeChannelOrders(base, ranks, nch)
	st := Strategy{Channels: make([]ChannelSpec, nch)}
	for c, order := range orders {
		route := RouteECMP
		if pinned {
			route = c
		}
		st.Channels[c] = ChannelSpec{Order: order, Route: route}
	}
	return st
}

// Hosts returns the distinct hosts of the communicator's ranks, in rank
// order of first appearance.
func (c *CommInfo) Hosts() []topo.HostID {
	var out []topo.HostID
	seen := make(map[topo.HostID]bool)
	for _, r := range c.Ranks {
		if !seen[r.Host] {
			seen[r.Host] = true
			out = append(out, r.Host)
		}
	}
	return out
}
