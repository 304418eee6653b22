package remediation_test

import (
	"testing"

	"mccs/internal/chaos"
)

// BenchmarkRemediationLoop measures the full closed loop — chaos
// self-heal scenario with the diagnosis engine and the remediation
// daemon attached — against the same scenario without the control loop,
// via chaos's BenchmarkSelfHealBaseline. The delta is the cost of detection,
// quarantine bookkeeping, recovery actions and report assembly
// (DESIGN.md §15 quotes it).
func BenchmarkRemediationLoop(b *testing.B) {
	sc := chaos.SelfHeal()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hr := chaos.RunSeedHealed(sc, uint64(i)+1)
		if hr.Err != nil {
			b.Fatal(hr.Err)
		}
		if hr.Remediation == nil {
			b.Fatal("no remediation report")
		}
	}
}
