package spec

import (
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"mccs/internal/topo"
)

func TestStrategyRouteFor(t *testing.T) {
	st := Strategy{
		Channels: []ChannelSpec{{Order: []int{0, 1}, Route: 1}},
		Routes:   map[ConnKey]int{{Channel: 0, FromRank: 0, ToRank: 1}: 7},
	}
	if got := st.RouteFor(ConnKey{Channel: 0, FromRank: 0, ToRank: 1}); got != 7 {
		t.Errorf("override route = %d, want 7", got)
	}
	if got := st.RouteFor(ConnKey{Channel: 0, FromRank: 1, ToRank: 0}); got != 1 {
		t.Errorf("channel default = %d, want 1", got)
	}
	if got := st.RouteFor(ConnKey{Channel: 5}); got != RouteECMP {
		t.Errorf("unknown channel = %d, want ECMP", got)
	}
}

func TestStrategyCloneIsDeep(t *testing.T) {
	st := Strategy{
		Channels: []ChannelSpec{{Order: []int{0, 1, 2}, Route: 0}},
		Routes:   map[ConnKey]int{{Channel: 0, FromRank: 0, ToRank: 1}: 1},
	}
	c := st.Clone()
	c.Channels[0].Order[0] = 9
	c.Routes[ConnKey{Channel: 0, FromRank: 0, ToRank: 1}] = 9
	if st.Channels[0].Order[0] != 0 {
		t.Error("Clone shares ring order")
	}
	if st.Routes[ConnKey{Channel: 0, FromRank: 0, ToRank: 1}] != 1 {
		t.Error("Clone shares route map")
	}
}

func TestStrategyValidate(t *testing.T) {
	if err := (&Strategy{}).Validate(2); err == nil {
		t.Error("empty strategy accepted")
	}
	bad := Strategy{Channels: []ChannelSpec{{Order: []int{0, 0}}}}
	if err := bad.Validate(2); err == nil {
		t.Error("non-permutation accepted")
	}
	short := Strategy{Channels: []ChannelSpec{{Order: []int{0}}}}
	if err := short.Validate(2); err == nil {
		t.Error("short ring accepted")
	}
	ok := Strategy{Channels: []ChannelSpec{{Order: []int{1, 0}}}}
	if err := ok.Validate(2); err != nil {
		t.Error(err)
	}
	// Found by FuzzStrategyValidate: an empty ring "matches" zero ranks.
	empty := Strategy{Channels: []ChannelSpec{{Order: []int{}}}}
	if err := empty.Validate(0); err == nil {
		t.Error("empty ring over zero ranks accepted")
	}
	// A route below RouteECMP used to pass and then index the transport's
	// path table negatively when the connection was rebuilt.
	badRoute := Strategy{Channels: []ChannelSpec{{Order: []int{1, 0}, Route: -2}}}
	if err := badRoute.Validate(2); err == nil {
		t.Error("channel route -2 accepted")
	}
	badConn := Strategy{Channels: []ChannelSpec{{Order: []int{1, 0}}},
		Routes: map[ConnKey]int{{FromRank: 1, ToRank: 0}: -3}}
	if err := badConn.Validate(2); err == nil {
		t.Error("connection route -3 accepted")
	}
	pinned := Strategy{Channels: []ChannelSpec{{Order: []int{1, 0}, Route: RouteECMP}},
		Routes: map[ConnKey]int{{FromRank: 1, ToRank: 0}: 3}}
	if err := pinned.Validate(2); err != nil {
		t.Error(err)
	}
}

func TestStripeChannelOrders(t *testing.T) {
	// 2 hosts x 2 GPUs, base order host-contiguous.
	base := []int{0, 1, 2, 3}
	chs := StripeChannelOrders(base, ranksOnHosts([]topo.HostID{0, 0, 1, 1}), 2)
	if len(chs) != 2 {
		t.Fatalf("channels = %d", len(chs))
	}
	want0 := []int{0, 1, 2, 3}
	want1 := []int{1, 0, 3, 2}
	for i := range want0 {
		if chs[0][i] != want0[i] {
			t.Errorf("ch0 = %v, want %v", chs[0], want0)
			break
		}
	}
	for i := range want1 {
		if chs[1][i] != want1[i] {
			t.Errorf("ch1 = %v, want %v", chs[1], want1)
			break
		}
	}
	// Host-boundary senders differ between channels: last rank of each
	// host segment.
	if chs[0][1] == chs[1][1] {
		t.Error("channel 1 did not rotate the host boundary")
	}
}

// ranksOnHosts returns one rank per entry of hosts, rank r on hosts[r].
func ranksOnHosts(hosts []topo.HostID) []RankInfo {
	ranks := make([]RankInfo, len(hosts))
	for r, h := range hosts {
		ranks[r] = RankInfo{Rank: r, Host: h}
	}
	return ranks
}

// RingStrategy lays the striped orders out as channels, channel c pinned to
// path c or routed by ECMP, and leaves the rest of the strategy zero.
func TestRingStrategy(t *testing.T) {
	ranks := ranksOnHosts([]topo.HostID{1, 0, 1, 0, 0})
	base := []int{0, 2, 1, 3, 4}
	orders := StripeChannelOrders(base, ranks, 3)
	for _, pinned := range []bool{false, true} {
		st := RingStrategy(base, ranks, 3, pinned)
		if len(st.Channels) != 3 || st.Routes != nil || st.TreeThreshold != 0 || st.Algorithm != AlgoRing {
			t.Fatalf("pinned %v: %+v", pinned, st)
		}
		for c, ch := range st.Channels {
			route := RouteECMP
			if pinned {
				route = c
			}
			if !slices.Equal(ch.Order, orders[c]) || ch.Route != route {
				t.Errorf("pinned %v: channel %d = %+v, want order %v route %d", pinned, c, ch, orders[c], route)
			}
		}
		if err := st.Validate(len(ranks)); err != nil {
			t.Errorf("pinned %v: %v", pinned, err)
		}
	}
}

// Property: every striped channel is a permutation, preserves each rank's
// host segment, and distinct channels differ at host boundaries when a
// host has more than one rank.
func TestQuickStripePermutation(t *testing.T) {
	f := func(groupsRaw []uint8, nchRaw uint8) bool {
		nch := int(nchRaw%3) + 1
		if len(groupsRaw) == 0 {
			groupsRaw = []uint8{1}
		}
		if len(groupsRaw) > 6 {
			groupsRaw = groupsRaw[:6]
		}
		var base []int
		var hosts []topo.HostID
		rank := 0
		for h, g := range groupsRaw {
			size := int(g%4) + 1
			for k := 0; k < size; k++ {
				base = append(base, rank)
				hosts = append(hosts, topo.HostID(h))
				rank++
			}
		}
		chs := StripeChannelOrders(base, ranksOnHosts(hosts), nch)
		if len(chs) != nch {
			return false
		}
		for _, order := range chs {
			if len(order) != len(base) {
				return false
			}
			seen := make([]bool, len(base))
			for i, r := range order {
				if r < 0 || r >= len(base) || seen[r] {
					return false
				}
				seen[r] = true
				// Host preserved position-wise.
				if hosts[r] != hosts[base[i]] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Reversed turns every ring around and keeps the rest of the strategy —
// except the per-connection routes, whose directed edges are gone.
func TestStrategyReversed(t *testing.T) {
	st := Strategy{
		Channels: []ChannelSpec{
			{Order: []int{0, 1, 2, 3}, Route: 0},
			{Order: []int{1, 0, 3, 2, 4}, Route: RouteECMP},
		},
		Routes:        map[ConnKey]int{{Channel: 0, FromRank: 1, ToRank: 2}: 1},
		TreeThreshold: 64 << 10,
		Algorithm:     AlgoHD,
	}
	rev := st.Reversed()
	want := Strategy{
		Channels: []ChannelSpec{
			{Order: []int{3, 2, 1, 0}, Route: 0},
			{Order: []int{4, 2, 3, 0, 1}, Route: RouteECMP},
		},
		TreeThreshold: 64 << 10,
		Algorithm:     AlgoHD,
	}
	if !reflect.DeepEqual(rev, want) {
		t.Errorf("Reversed() = %+v, want %+v", rev, want)
	}
	if st.Channels[0].Order[0] != 0 || len(st.Routes) != 1 {
		t.Errorf("Reversed mutated its receiver: %+v", st)
	}
	if back := rev.Reversed(); !reflect.DeepEqual(back.Channels, st.Channels) {
		t.Errorf("reversing twice = %+v, want the original rings", back.Channels)
	}
}
