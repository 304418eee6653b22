package proxy

import (
	"maps"
	"reflect"
	"testing"

	"mccs/internal/collective"
	"mccs/internal/netsim"
	"mccs/internal/spec"
)

// Route pushes and the link-attribution map act on management-plane keys
// (channel, from, to). A key must reach every connection behind it — the
// ring edge and, under a halving-doubling or tree strategy, the butterfly
// and tree edges between the same ranks — or a repin silently leaves
// part of the communicator's traffic on the old path.
func TestRouteUpdatesCoverEveryEdge(t *testing.T) {
	r := newRig(t)
	gpus := r.allGPUs() // ranks 0-3 in rack 0, 4-7 in rack 1
	info := spec.CommInfo{ID: 9, App: "edges"}
	for i, g := range gpus {
		info.Ranks = append(info.Ranks, spec.RankInfo{
			Rank: i, GPU: g, Host: r.cluster.HostOfGPU(g), NIC: r.cluster.NICOfGPU(g),
		})
	}
	// 0->4 is a ring edge, a butterfly (XOR 4) edge and a root-0 tree
	// edge; 2->6 is a butterfly edge only.
	info.Strategy = spec.Strategy{
		Channels:      []spec.ChannelSpec{{Order: []int{0, 4, 1, 5, 2, 3, 6, 7}, Route: 0}},
		Algorithm:     spec.AlgoHD,
		TreeThreshold: 4096,
	}
	comm, err := NewComm(r.s, r.cluster, r.engines, r.devices, info, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	shared := spec.ConnKey{Channel: 0, FromRank: 0, ToRank: 4}
	hdOnly := spec.ConnKey{Channel: 0, FromRank: 2, ToRank: 6}
	cs := comm.newest()
	if got := len(cs.at(nil, shared)); got != 3 {
		t.Fatalf("%d connections behind %+v, want ring+tree+hd", got, shared)
	}
	if got := len(cs.at(nil, hdOnly)); got != 1 {
		t.Fatalf("%d connections behind %+v, want the butterfly edge", got, hdOnly)
	}
	if n := cs.at(nil, hdOnly)[0].PathCount(); n < 2 {
		t.Fatalf("cross-rack edge has %d equal-cost paths, need 2 to re-pin", n)
	}
	routes := comm.ConnRoutes()
	for _, k := range []spec.ConnKey{shared, hdOnly} {
		if len(routes[k]) == 0 {
			t.Errorf("ConnRoutes misses %+v", k)
		}
	}

	before := make(map[collective.Edge][]netsim.LinkID)
	for _, e := range cs.edges {
		if e.Key() == shared || e.Key() == hdOnly {
			before[e] = cs.conns[e].CurrentPath()
		}
	}
	if err := comm.UpdateRoutes(map[spec.ConnKey]int{shared: 1, hdOnly: 1}); err != nil {
		t.Fatal(err)
	}
	want := cs.conns[collective.Edge{Algo: collective.AlgoRing, Channel: 0, From: 0, To: 4}].CurrentPath()
	for e, old := range before {
		now := cs.conns[e].CurrentPath()
		// (The tree edge was ECMP-hashed and may have sat on pin 1's
		// path already; the ring and butterfly edges were pinned to 0.)
		if e.Algo != collective.AlgoTree && reflect.DeepEqual(now, old) {
			t.Errorf("%v edge %d->%d still on its old path after the route push", e.Algo, e.From, e.To)
		}
		if e.Key() == shared && !reflect.DeepEqual(now, want) {
			t.Errorf("%v edge 0->4 on %v, the ring edge on %v: one key, two routes", e.Algo, now, want)
		}
	}
	if err := comm.UpdateRoutes(map[spec.ConnKey]int{{Channel: 0, FromRank: 2, ToRank: 7}: 1}); err == nil {
		t.Error("route push for a connection no family provisions was accepted")
	}
}

// A route push is all or nothing. It used to walk the map and stop at the
// first unknown key, leaving the connections visited before it re-pinned
// but unrecorded in the strategy, so the next reconfiguration reverted
// them. Map order is random, so the push is repeated.
func TestRoutePushIsAllOrNothing(t *testing.T) {
	r := newRig(t)
	gpus := r.allGPUs() // ranks 0-3 in rack 0, 4-7 in rack 1
	info := spec.CommInfo{ID: 9, App: "push"}
	for i, g := range gpus {
		info.Ranks = append(info.Ranks, spec.RankInfo{
			Rank: i, GPU: g, Host: r.cluster.HostOfGPU(g), NIC: r.cluster.NICOfGPU(g),
		})
	}
	// Every ring edge crosses the racks, so every one has a second path.
	order := []int{0, 4, 1, 5, 2, 6, 3, 7}
	info.Strategy = spec.Strategy{Channels: []spec.ChannelSpec{{Order: order, Route: 0}}}
	comm, err := NewComm(r.s, r.cluster, r.engines, r.devices, info, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cs := comm.newest()
	paths := func() map[collective.Edge][]netsim.LinkID {
		out := make(map[collective.Edge][]netsim.LinkID)
		for _, e := range cs.edges {
			out[e] = cs.conns[e].CurrentPath()
		}
		return out
	}
	before := paths()
	valid := make(map[spec.ConnKey]int)
	for i, from := range order[:7] {
		k := spec.ConnKey{Channel: 0, FromRank: from, ToRank: order[i+1]}
		if n := cs.at(nil, k)[0].PathCount(); n < 2 {
			t.Fatalf("ring edge %+v has %d paths, need 2", k, n)
		}
		valid[k] = 1
	}
	for _, bad := range []struct {
		key   spec.ConnKey
		route int
	}{
		{spec.ConnKey{Channel: 0, FromRank: 0, ToRank: 1}, 1},  // not an edge of this ring
		{spec.ConnKey{Channel: 0, FromRank: 7, ToRank: 0}, -2}, // an edge, a bad index
	} {
		for i := 0; i < 20; i++ {
			push := maps.Clone(valid)
			push[bad.key] = bad.route
			if err := comm.UpdateRoutes(push); err == nil {
				t.Fatalf("push with %+v -> %d accepted", bad.key, bad.route)
			}
			if got := paths(); !reflect.DeepEqual(got, before) {
				t.Fatalf("push with %+v -> %d rejected but moved connections", bad.key, bad.route)
			}
			if st := comm.Strategy(); len(st.Routes) != 0 {
				t.Fatalf("rejected push recorded routes %v", st.Routes)
			}
		}
	}
	if err := comm.UpdateRoutes(valid); err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(paths(), before) {
		t.Error("the valid push moved nothing: the test cannot see a partial one")
	}
}
