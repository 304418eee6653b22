// Package allocpin is the reading the exact allocation pins of the tests
// share.
package allocpin

import "testing"

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
