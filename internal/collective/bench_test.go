package collective_test

import (
	"math/rand"
	"testing"

	. "mccs/internal/collective"
	"mccs/internal/collectivetest"
)

// BenchmarkLower measures ring lowering (runs on every collective launch
// in the proxy, once per channel).
func BenchmarkLower(b *testing.B) {
	rings := []*Ring{IdentityRing(32)}
	var steps []Step // handed back in, as the proxy does
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		steps = Lower(steps, AlgoRing, AllReduce, rings, i%32, 0, 0, 1<<20).Steps
	}
}

// BenchmarkExecute measures the in-memory verification executor.
func BenchmarkExecute(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	in := randInputs(rng, 8, 4096)
	progs := collectivetest.LowerAll(AlgoRing, AllReduce, []*Ring{IdentityRing(8)}, 0, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := collectivetest.Execute(AllReduce, progs, in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLowerTree measures tree lowering.
func BenchmarkLowerTree(b *testing.B) {
	rings := []*Ring{IdentityRing(32)}
	var steps []Step
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		steps = Lower(steps, AlgoTree, AllReduce, rings, i%32, 0, 0, 1<<10).Steps
	}
}
