package netsim

import (
	"math/rand"
	"testing"
	"time"

	"mccs/internal/sim"
)

// clos builds a 16x24 spine-leaf graph with h NIC endpoints per leaf for
// allocator stress benches.
func benchClos(nicsPerLeaf int) (*Network, []NodeID) {
	n := NewNetwork()
	var spines, leaves []NodeID
	for i := 0; i < 16; i++ {
		spines = append(spines, n.AddNode("s"))
	}
	var nics []NodeID
	for l := 0; l < 24; l++ {
		leaf := n.AddNode("l")
		leaves = append(leaves, leaf)
		for _, sp := range spines {
			n.AddDuplex(leaf, sp, 200*gbps)
		}
		for k := 0; k < nicsPerLeaf; k++ {
			nic := n.AddNode("n")
			n.AddDuplex(nic, leaf, 200*gbps)
			nics = append(nics, nic)
		}
	}
	_ = leaves
	return n, nics
}

// BenchmarkWaterfill measures one max-min reallocation with many active
// cross-rack flows — the fabric's hot path.
func BenchmarkWaterfill(b *testing.B) {
	for _, nFlows := range []int{100, 500, 2000} {
		b.Run(benchName(nFlows), func(b *testing.B) {
			s := sim.New()
			net, nics := benchClos(8)
			fb := NewFabric(s, net)
			rng := rand.New(rand.NewSource(1))
			s.Go("setup", func(p *sim.Proc) {
				for i := 0; i < nFlows; i++ {
					src := nics[rng.Intn(len(nics))]
					dst := nics[rng.Intn(len(nics))]
					if src == dst {
						continue
					}
					fb.StartFlow(FlowOpts{Src: src, Dst: dst, Bytes: 1e15, Label: uint64(i)})
				}
			})
			if err := s.RunUntil(0); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fb.recompute()
			}
			b.ReportMetric(float64(fb.ActiveFlows()), "flows")
		})
	}
}

// benchTestbed builds the paper's testbed graph (topo.TestbedConfig: 2
// spines, 2 leaves, 2 hosts per leaf, 2 NICs per host, 50 Gbps links) and
// returns the NICs host-major: nics[2*host+k].
func benchTestbed() (*Network, []NodeID) {
	n := NewNetwork()
	spines := []NodeID{n.AddNode("s0"), n.AddNode("s1")}
	var nics []NodeID
	for l := 0; l < 2; l++ {
		leaf := n.AddNode("l")
		for _, sp := range spines {
			n.AddDuplex(leaf, sp, 50*gbps)
		}
		for k := 0; k < 4; k++ {
			nic := n.AddNode("n")
			n.AddDuplex(nic, leaf, 50*gbps)
			nics = append(nics, nic)
		}
	}
	return n, nics
}

// startTestbedFlows puts testbed-scale traffic on fb: 8 endless flows, each
// NIC sending to the same NIC of the next host — two two-channel rings'
// worth of cross-host edges.
func startTestbedFlows(fb *Fabric, nics []NodeID) {
	for i, nic := range nics {
		fb.StartFlow(FlowOpts{Src: nic, Dst: nics[(i+2)%len(nics)], Label: uint64(i)})
	}
}

// BenchmarkAllocate measures one allocation at testbed scale three ways:
// answered by the memo, solved and stored (every lookup misses because the
// capacity epoch moves), and with the memo out of the way — what every
// recompute cost before it existed.
func BenchmarkAllocate(b *testing.B) {
	for _, tc := range []struct {
		name string
		step func(fb *Fabric)
	}{
		{"hit", (*Fabric).allocate},
		{"miss", func(fb *Fabric) { fb.memo.epoch++; fb.allocate() }},
		{"bypass", allocateUnmemoised},
	} {
		b.Run(tc.name, func(b *testing.B) {
			s := sim.New()
			net, nics := benchTestbed()
			fb := NewFabric(s, net)
			s.Go("setup", func(p *sim.Proc) { startTestbedFlows(fb, nics) })
			if err := s.RunUntil(0); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tc.step(fb)
			}
			b.ReportMetric(float64(fb.ActiveFlows()), "flows")
		})
	}
}

// churner keeps one flow in flight: each completion starts the next.
type churner struct {
	fb    *Fabric
	start func(*Fabric, FlowOpts)
	opts  FlowOpts
	done  int
}

func (c *churner) OnEvent(uint64) {
	c.done++
	c.opts.Label = uint64(c.done)
	c.start(c.fb, c.opts)
}

// BenchmarkFlowChurn measures start+finish cycles including timer
// management, for a flow whose handle is returned (and dropped) and for a
// fabric-owned one.
func BenchmarkFlowChurn(b *testing.B) {
	for _, tc := range []struct {
		name  string
		start func(*Fabric, FlowOpts)
	}{
		{"StartFlow", func(fb *Fabric, o FlowOpts) { fb.StartFlow(o) }},
		{"Send", func(fb *Fabric, o FlowOpts) { fb.Send(&o) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			s := sim.New()
			net, nics := benchClos(4)
			c := &churner{fb: NewFabric(s, net), start: tc.start}
			c.opts = FlowOpts{Src: nics[0], Dst: nics[50], Bytes: 1e6, OnDone: c}
			b.ReportAllocs()
			b.ResetTimer()
			s.At(0, func() { c.start(c.fb, c.opts) })
			_ = s.RunUntil(sim.Time(time.Duration(b.N) * 45 * time.Microsecond))
			b.ReportMetric(float64(c.done)/float64(b.N), "flows/op")
		})
	}
}

func benchName(n int) string {
	switch n {
	case 100:
		return "flows=100"
	case 500:
		return "flows=500"
	default:
		return "flows=2000"
	}
}
