package chaos

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// liveHeap returns the bytes still reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC() // finalizers and the sweep of the first cycle
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestRunSeedReleasesItsEnvironment: a chaos run's deployment is full of
// daemon processes parked forever, and each parked goroutine pins the
// whole environment (about 6 MB: trace ring, telemetry samples, fabric).
// RunSeed must shut its scheduler down, so that a sweep's memory and
// goroutine count stay flat however many seeds it runs — weakened runs,
// which end in a panic or a deadlock, included — and so must the checker's
// own goroutines, also on a run that fails before any rank starts (nine
// ranks do not fit the 8-GPU testbed).
func TestRunSeedReleasesItsEnvironment(t *testing.T) {
	sc, weak := ReconfigStorm(), ReconfigStorm().Weakened()
	tooWide := Straggler()
	tooWide.Ranks = 9
	RunSeed(sc, 1) // path caches and other process-lifetime state
	baseGoroutines, baseHeap := runtime.NumGoroutine(), liveHeap()
	for seed := uint64(2); seed < 8; seed++ {
		if res := RunSeed(sc, seed); res.Err != nil {
			t.Fatalf("seed %d: %v", seed, res.Err)
		}
		RunSeed(weak, seed)
		if res := RunSeed(tooWide, seed); res.Err == nil || !strings.Contains(res.Err.Error(), "selecting GPUs") {
			t.Fatalf("9 ranks on 8 GPUs, seed %d: %v", seed, res.Err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseGoroutines && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseGoroutines {
		t.Errorf("%d goroutines after 18 runs, %d before", n, baseGoroutines)
	}
	const slack = 4 << 20 // well under one leaked environment
	if heap := liveHeap(); heap > baseHeap+slack {
		t.Errorf("live heap grew from %d KB to %d KB over 18 runs", baseHeap>>10, heap>>10)
	}
}

// TestRepeatedRunReusesDeviceMemory: a run's backed buffers go back to
// gpusim's free list when its environment closes, so a second run of the
// same seed takes its device memory from there rather than from the heap.
// A self-heal run allocates ≈ 110 MB when its device memory is fresh.
func TestRepeatedRunReusesDeviceMemory(t *testing.T) {
	sc := SelfHeal()
	if res := RunSeedHealed(sc, 1); res.Err != nil {
		t.Fatal(res.Err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := RunSeedHealed(sc, 1)
	runtime.ReadMemStats(&after)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	const limit = 16 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Errorf("the repeated run allocated %d KB, want at most %d KB", got>>10, limit>>10)
	}
}
