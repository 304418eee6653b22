package harness

import (
	"testing"
	"time"

	"mccs/internal/netsim"
)

// memoHitRate is hits over the recomputes that consulted the memo.
func memoHitRate(c netsim.Counters) float64 {
	return float64(c.MemoHits) / float64(c.MemoHits+c.MemoMisses)
}

// TestFabricMemoHitRates pins what the allocation memo is for: the two
// halves of the tenants_dynamic benchmark workload, at their benchmark
// configurations, ask the fabric for the same few allocations over and over
// (DESIGN.md §10.3 quotes these rates).
func TestFabricMemoHitRates(t *testing.T) {
	dyn, err := RunDynamic(DynamicConfig{
		T1: 3 * time.Second, T2: 6 * time.Second, T3: 9 * time.Second, T4: 12 * time.Second,
		RunFor: 15 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := RunReconfigShowcase(DefaultReconfigConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		c    netsim.Counters
		want float64
	}{
		{"RunDynamic", dyn.Fabric, 0.95},
		{"RunReconfigShowcase", rec.Fabric, 0.99},
	} {
		c := tc.c
		t.Logf("%s: %d recomputes, %d hits, %d misses (%.2f%% hits), %d entries, %d flows recycled",
			tc.name, c.Recomputes, c.MemoHits, c.MemoMisses, 100*memoHitRate(c), c.MemoEntries, c.FlowsRecycled)
		if got := memoHitRate(c); got < tc.want {
			t.Errorf("%s: memo hit rate %.4f, want >= %.2f", tc.name, got, tc.want)
		}
		if c.MemoHits+c.MemoMisses > c.Recomputes {
			t.Errorf("%s: %d memo lookups in %d recomputes", tc.name, c.MemoHits+c.MemoMisses, c.Recomputes)
		}
		if c.FlowsRecycled == 0 {
			t.Errorf("%s: no flow was recycled", tc.name)
		}
	}
}
