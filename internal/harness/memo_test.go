package harness

import (
	"testing"
	"time"

	"mccs/internal/netsim"
)

// fabricCounters calls run, a driver that builds one environment, and
// returns that environment's fabric counts, read through envBuilt.
func fabricCounters(t *testing.T, run func() error) netsim.Counters {
	var envs []*Env
	envBuilt = func(e *Env) { envs = append(envs, e) }
	defer func() { envBuilt = nil }()
	if err := run(); err != nil {
		t.Fatal(err)
	}
	if len(envs) != 1 {
		t.Fatalf("the driver built %d environments, want 1", len(envs))
	}
	return envs[0].Fabric.Counters
}

// memoHitRate is hits over the recomputes that consulted the memo.
func memoHitRate(c netsim.Counters) float64 {
	return float64(c.MemoHits) / float64(c.MemoHits+c.MemoMisses)
}

// TestFabricMemoHitRates pins what the allocation memo is for: the two
// halves of the tenants_dynamic benchmark workload, at their benchmark
// configurations, ask the fabric for the same few allocations over and over
// (DESIGN.md §10.3 quotes these rates).
func TestFabricMemoHitRates(t *testing.T) {
	dyn := fabricCounters(t, func() error {
		_, err := RunDynamic(DynamicConfig{
			T1: 3 * time.Second, T2: 6 * time.Second, T3: 9 * time.Second, T4: 12 * time.Second,
			RunFor: 15 * time.Second,
		})
		return err
	})
	rec := fabricCounters(t, func() error {
		_, err := RunReconfigShowcase(DefaultReconfigConfig())
		return err
	})
	for _, tc := range []struct {
		name string
		c    netsim.Counters
		want float64
	}{
		{"RunDynamic", dyn, 0.95},
		{"RunReconfigShowcase", rec, 0.99},
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
