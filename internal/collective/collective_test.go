package collective_test

import (
	"math"
	"math/rand"
	"testing"
	"time"

	. "mccs/internal/collective"
	"mccs/internal/collectivetest"
)

// IdentityRing returns the rank-order ring 0,1,...,n-1 (what NCCL builds
// from user-assigned ranks).
func IdentityRing(n int) *Ring {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	r, _ := collectivetest.NewRing(order)
	return r
}

func randRing(rng *rand.Rand, n int) *Ring {
	order := rng.Perm(n)
	r, err := collectivetest.NewRing(order)
	if err != nil {
		panic(err)
	}
	return r
}

func randInputs(rng *rand.Rand, n int, count int) [][]float32 {
	in := make([][]float32, n)
	for r := range in {
		in[r] = make([]float32, count)
		for i := range in[r] {
			in[r][i] = float32(rng.Intn(64)) // small ints: exact float sums
		}
	}
	return in
}

func TestNewRingValidation(t *testing.T) {
	if _, err := collectivetest.NewRing(nil); err == nil {
		t.Error("empty ring accepted")
	}
	if _, err := collectivetest.NewRing([]int{0, 0}); err == nil {
		t.Error("duplicate rank accepted")
	}
	if _, err := collectivetest.NewRing([]int{0, 5}); err == nil {
		t.Error("out-of-range rank accepted")
	}
	r, err := collectivetest.NewRing([]int{2, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Next(2) != 0 || r.Next(0) != 1 || r.Next(1) != 2 {
		t.Error("Next wrong")
	}
	if r.Prev(2) != 1 || r.Prev(0) != 2 || r.Prev(1) != 0 {
		t.Error("Prev wrong")
	}
	if r.PosOf(2) != 0 || r.RankAt(0) != 2 {
		t.Error("Pos/RankAt wrong")
	}
}

func TestRegionsBalanced(t *testing.T) {
	for _, tc := range []struct{ count, n int64 }{{10, 3}, {7, 7}, {5, 8}, {1000, 4}, {1, 1}} {
		starts, lens := collectivetest.Regions(tc.count, int(tc.n))
		var total int64
		for i := range lens {
			total += lens[i]
			if i > 0 && starts[i] != starts[i-1]+lens[i-1] {
				t.Errorf("Regions(%d,%d): non-contiguous at %d", tc.count, tc.n, i)
			}
			if lens[i] < tc.count/tc.n || lens[i] > tc.count/tc.n+1 {
				t.Errorf("Regions(%d,%d): unbalanced region %d len %d", tc.count, tc.n, i, lens[i])
			}
		}
		if total != tc.count {
			t.Errorf("Regions(%d,%d): total %d", tc.count, tc.n, total)
		}
		if end, _ := Part(tc.count, int(tc.n), int(tc.n)); end != tc.count {
			t.Errorf("Part(%d,%d) end boundary = %d", tc.count, tc.n, end)
		}
	}
}

func TestBusBWFactor(t *testing.T) {
	if got := BusBWFactor(AllReduce, 4); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("AllReduce factor = %g, want 1.5", got)
	}
	if got := BusBWFactor(AllGather, 4); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("AllGather factor = %g, want 0.75", got)
	}
	if got := BusBWFactor(Broadcast, 4); got != 1 {
		t.Errorf("Broadcast factor = %g, want 1", got)
	}
	if got := BusBWFactor(AllReduce, 1); got != 1 {
		t.Errorf("n=1 factor = %g, want 1", got)
	}
}

func TestAlgBW(t *testing.T) {
	if got := AlgBW(1e9, time.Second); got != 1e9 {
		t.Errorf("AlgBW = %g", got)
	}
	if got := AlgBW(1e9, 0); got != 0 {
		t.Errorf("AlgBW with zero time = %g, want 0", got)
	}
}
