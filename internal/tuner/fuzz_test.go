package tuner

import (
	"testing"

	"mccs/internal/collective"
	"mccs/internal/netsim"
	"mccs/internal/spec"
	"mccs/internal/topo"
)

// FuzzPredict decodes bytes into a communicator on the 4-host testbed (2 to
// 8 of its GPUs, in any order, so rings mix same-host and cross-rack hops)
// and a strategy over it (1 to 4 channels, each with its own ring order and
// route, per-connection route overrides, ring or halving-doubling, a tree
// threshold), then prices every op at the decoded size with Predict and
// with referencePredict, on an idle fabric or under an external load. One
// model, and with it one workspace, serves every input, so a table a
// previous input left dirty fails the comparison.
func FuzzPredict(f *testing.F) {
	f.Add([]byte{8, 2, 0, 1, 2, 3, 4, 5, 6, 7, 0xff, 0, 0, 9, 0})
	f.Add([]byte{4, 1, 3, 1, 0, 2, 1, 1, 0, 20, 1, 5})
	f.Add([]byte{6, 3, 5, 4, 3, 2, 1, 0, 7, 0xfe, 2, 3, 4, 1, 1, 30, 1})
	f.Add([]byte{2, 4, 1, 0, 0, 0, 9, 2, 12, 0})
	c, err := topo.BuildClos(topo.TestbedConfig())
	if err != nil {
		f.Fatal(err)
	}
	m := DefaultModel(c)
	loaded := func(l netsim.LinkID) float64 {
		return float64(int(l)%5) * 0.3 * c.Net.Link(l).Capacity
	}
	var gpus []topo.GPUID
	for _, h := range c.Hosts {
		gpus = append(gpus, h.GPUs...)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		// A permutation of [0, n) drawn by Fisher-Yates.
		perm := func(n int) []int {
			p := make([]int, n)
			for i := range p {
				p[i] = i
			}
			for i := n - 1; i > 0; i-- {
				j := next() % (i + 1)
				p[i], p[j] = p[j], p[i]
			}
			return p
		}
		n := 2 + next()%(len(gpus)-1)
		info := &spec.CommInfo{ID: 1, App: "fuzz"}
		for i, g := range perm(len(gpus))[:n] {
			info.Ranks = append(info.Ranks, spec.RankInfo{Rank: i, GPU: gpus[g], Host: c.HostOfGPU(gpus[g]), NIC: c.NICOfGPU(gpus[g])})
		}
		var st spec.Strategy
		for ch := 1 + next()%4; ch > 0; ch-- {
			// -1 is ECMP; anything else pins, modulo the paths.
			st.Channels = append(st.Channels, spec.ChannelSpec{Order: perm(n), Route: next()%6 - 1})
		}
		for k := next() % 4; k > 0; k-- {
			if st.Routes == nil {
				st.Routes = map[spec.ConnKey]int{}
			}
			st.Routes[spec.ConnKey{Channel: next() % len(st.Channels), FromRank: next() % n, ToRank: next() % n}] = next()%4 - 1
		}
		if next()%2 == 1 {
			st.Algorithm = spec.AlgoHD
		}
		size := int64(4*n) << (next() % 26)
		if next()%3 == 0 {
			st.TreeThreshold = size + 1
		}
		m.ExtLoad = nil
		if next()%2 == 1 {
			m.ExtLoad = loaded
		}
		if err := st.Validate(n); err != nil {
			t.Fatalf("decoded an invalid strategy: %v", err)
		}
		for op := collective.AllReduce; op <= collective.Reduce; op++ {
			root := next() % n
			if got, want := m.Predict(info, &st, op, root, size), m.referencePredict(info, &st, op, root, size); got != want {
				t.Fatalf("%v root %d of %d bytes under %+v: Predict %v, reference %v", op, root, size, st, got, want)
			}
		}
	})
}
