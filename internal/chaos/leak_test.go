package chaos

import (
	"runtime"
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
// which end in a panic or a deadlock, included.
func TestRunSeedReleasesItsEnvironment(t *testing.T) {
	sc, weak := ReconfigStorm(), ReconfigStorm().Weakened()
	RunSeed(sc, 1) // path caches and other process-lifetime state
	baseGoroutines, baseHeap := runtime.NumGoroutine(), liveHeap()
	for seed := uint64(2); seed < 8; seed++ {
		if res := RunSeed(sc, seed); res.Err != nil {
			t.Fatalf("seed %d: %v", seed, res.Err)
		}
		RunSeed(weak, seed)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseGoroutines && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseGoroutines {
		t.Errorf("%d goroutines after 12 runs, %d before", n, baseGoroutines)
	}
	const slack = 4 << 20 // well under one leaked environment
	if heap := liveHeap(); heap > baseHeap+slack {
		t.Errorf("live heap grew from %d KB to %d KB over 12 runs", baseHeap>>10, heap>>10)
	}
}
