//go:build !race

package proxy

// raceEnabled reports a test binary built with the race detector, whose
// runtime allocates beside the code an allocation count measures.
const raceEnabled = false
