package chaos

import (
	"sync"
	"testing"
)

// Pinned (at, seq) trace hashes — one seed per scenario, captured from
// the container/heap scheduler core before the pooled-arena overhaul
// (PR 8) and reproduced byte-for-byte by it. The trace hash digests the
// complete event schedule INCLUDING the fuzzer's PRNG consumption (each
// Pick(n) call advances the stream by an amount depending on n), so this
// test trips on any change to event ordering, ready-set membership
// visibility, or picker call sites — exactly the failure modes that
// would silently invalidate the whole corpus.
//
// If a change is deliberately schedule-altering, re-pin these hashes
// together with the root schedule-fingerprint golden and re-validate the
// corpus seeds, explaining why in CHANGES.md.
var pinnedTraceHashes = []struct {
	scenario string
	seed     uint64
	hash     uint64
	events   int
}{
	{"link-flap", 1, 0xa3f01030dc7d980e, 867},
	{"straggler", 1, 0x4b2662508122a3f0, 7258},
	{"reconfig-storm", 1, 0xb7178e5ff4b3124f, 1723},
	{"autotune-churn", 1, 0x7954381adc36b91b, 7059},
	{"orchestrator-churn", 1, 0xc1504fe473f962ce, 2180},
}

func TestCorpusTraceHashPinned(t *testing.T) {
	byName := map[string]Scenario{}
	for _, sc := range Scenarios() {
		byName[sc.Name] = sc
	}
	for _, pin := range pinnedTraceHashes {
		sc, ok := byName[pin.scenario]
		if !ok {
			t.Errorf("pinned scenario %q no longer exists", pin.scenario)
			continue
		}
		res := RunSeed(sc, pin.seed)
		if res.Failed() {
			t.Errorf("%s seed %d failed: %v", pin.scenario, pin.seed, res)
			continue
		}
		if res.TraceHash != pin.hash || res.Events != pin.events {
			t.Errorf("%s seed %d: hash=%#x events=%d, want hash=%#x events=%d — the schedule is no longer byte-identical",
				pin.scenario, pin.seed, res.TraceHash, res.Events, pin.hash, pin.events)
		}
	}
}

// TestConcurrentRunsKeepTheirHashes: runs on separate goroutines draw
// device memory from, and release it to, gpusim's one process-wide free
// list. Two pinned runs, each repeated on its own goroutine, must replay
// their pinned schedules while they trade buffers; under -race (make
// race-hot) this is the free list's data-race check.
func TestConcurrentRunsKeepTheirHashes(t *testing.T) {
	t.Parallel()
	byName := map[string]Scenario{}
	for _, sc := range Scenarios() {
		byName[sc.Name] = sc
	}
	var wg sync.WaitGroup
	for _, pin := range pinnedTraceHashes {
		if pin.scenario != "link-flap" && pin.scenario != "reconfig-storm" {
			continue
		}
		sc := byName[pin.scenario]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				res := RunSeed(sc, pin.seed)
				if res.Failed() || res.TraceHash != pin.hash || res.Events != pin.events {
					t.Errorf("%s seed %d, round %d: hash=%#x events=%d err=%v, want hash=%#x events=%d",
						pin.scenario, pin.seed, round, res.TraceHash, res.Events, res.Err, pin.hash, pin.events)
					return
				}
			}
		}()
	}
	wg.Wait()
}
