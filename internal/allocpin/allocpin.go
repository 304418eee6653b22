// Package allocpin is the reading the exact allocation pins of the tests
// share.
package allocpin

import (
	"runtime"
	"testing"
)

// Min returns the fewest allocations f makes per run, over three readings
// of testing.AllocsPerRun(runs, f). An allocation made beside f — by the
// runtime or another goroutine while f runs — can only add to a reading,
// never take from it, so the minimum is f's own count and a pin on it can
// stay exact.
func Min(runs int, f func()) float64 {
	least := testing.AllocsPerRun(runs, f)
	for i := 1; i < 3; i++ {
		least = min(least, testing.AllocsPerRun(runs, f))
	}
	return least
}

// MinBytes returns the fewest heap bytes f allocates per run: the least of
// three runtime.MemStats.TotalAlloc deltas over runs calls of f, divided by
// runs, after one warm-up call and with GOMAXPROCS at 1, as
// testing.AllocsPerRun reads counts. The runtime counts a small object at
// its size class, so a byte pin moves by whole size classes: a field that
// pushes an object into the next class shows, one that fits in the slack
// does not. As with Min, the minimum is f's own figure.
func MinBytes(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var ms runtime.MemStats
	least := ^uint64(0)
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		for j := 0; j < runs; j++ {
			f()
		}
		runtime.ReadMemStats(&ms)
		least = min(least, (ms.TotalAlloc-before)/uint64(runs))
	}
	return least
}
