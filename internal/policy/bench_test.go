package policy

import (
	"math/rand"
	"testing"

	"mccs/internal/spec"
	"mccs/internal/topo"
)

// benchView builds a management view of nJobs random jobs on the
// large-scale cluster.
func benchView(b *testing.B, nJobs int) (*topo.Cluster, []spec.CommInfo) {
	b.Helper()
	c, err := topo.BuildClos(topo.LargeScaleConfig())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	var comms []spec.CommInfo
	for j := 0; j < nJobs; j++ {
		n := 16 + 16*rng.Intn(2)
		perm := rng.Perm(len(c.GPUs))[:n]
		info := spec.CommInfo{ID: spec.CommID(j + 1), App: spec.AppID(rune('A' + j%26))}
		for i, g := range perm {
			gid := topo.GPUID(g)
			info.Ranks = append(info.Ranks, spec.RankInfo{
				Rank: i, GPU: gid, Host: c.HostOfGPU(gid), NIC: c.NICOfGPU(gid),
			})
		}
		info.Strategy = spec.RingStrategy(LocalityRing(c, info.Ranks), info.Ranks, 8, false)
		comms = append(comms, info)
	}
	return c, comms
}

// BenchmarkLocalityRing measures ring-order computation for a 32-GPU job
// (the paper reports <1 ms and linear scaling).
func BenchmarkLocalityRing(b *testing.B) {
	c, comms := benchView(b, 1)
	ranks := comms[0].Ranks
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = LocalityRing(c, ranks)
	}
}

// BenchmarkFFA measures full-cluster fair flow assignment — the
// rescheduling cost paid on every job join/exit in the large-scale
// simulation.
func BenchmarkFFA(b *testing.B) {
	for _, nJobs := range []int{5, 20} {
		name := "jobs=5"
		if nJobs == 20 {
			name = "jobs=20"
		}
		b.Run(name, func(b *testing.B) {
			c, comms := benchView(b, nJobs)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = FFA(c, comms)
			}
		})
	}
}

// BenchmarkCrossRackSweep measures the Fig. 3 Monte Carlo.
func BenchmarkCrossRackSweep(b *testing.B) {
	sizes := []int{64, 256, 1024}
	for i := 0; i < b.N; i++ {
		_ = CrossRackSweep(8, 4, sizes, 200, int64(i))
	}
}
