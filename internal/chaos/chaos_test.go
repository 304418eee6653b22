package chaos

import (
	"testing"
)

// TestChaosSweep is the headline chaos run: every scenario swept over 120
// seeds (600 runs total), then every seed replayed to prove the harness
// is deterministic — identical trace fingerprint, event count, and
// verdict on the second run. Each run owns its scheduler and testbed, so
// the scenarios sweep in parallel with each other and with the other
// parallel tests.
func TestChaosSweep(t *testing.T) {
	t.Parallel()
	seeds := Seeds(1, 120)
	for _, sc := range Scenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			first := Run(seeds, sc)
			for _, f := range first.Failures() {
				t.Errorf("%v", f)
			}
			second := Run(seeds, sc)
			for i := range first.Results {
				a, b := first.Results[i], second.Results[i]
				if a.TraceHash != b.TraceHash || a.Events != b.Events || a.Failed() != b.Failed() {
					t.Errorf("seed 0x%x not deterministic: run1 hash=%016x events=%d failed=%v, run2 hash=%016x events=%d failed=%v",
						a.Seed, a.TraceHash, a.Events, a.Failed(), b.TraceHash, b.Events, b.Failed())
				}
			}
			t.Logf("%s: %d seeds, %d failures, deterministic replay verified", sc.Name, len(seeds), len(first.Failures()))
		})
	}
}

// TestChaosCatchesWeakenedProtocol deliberately breaks the
// reconfiguration protocol — skipping the sequence-number agreement
// barrier so ranks can disagree on which ops run before the ring switch
// — and asserts the harness detects the corruption within the seed
// budget. This is the sensitivity check: a chaos harness that cannot
// catch a known protocol violation proves nothing when it passes.
func TestChaosCatchesWeakenedProtocol(t *testing.T) {
	sw := Run(Seeds(1, 40), ReconfigStorm().Weakened())
	fails := sw.Failures()
	if len(fails) == 0 {
		t.Fatalf("weakened protocol not detected in %d seeds; the harness has lost sensitivity", len(sw.Results))
	}
	t.Logf("weakened protocol detected in %d/%d seeds; first: %v", len(fails), len(sw.Results), fails[0])
}

// TestOrchestratorChurnScenario spot-checks the lifecycle scenario
// beyond the sweep: seeds must pass every invariant (including the
// churn leak checks), and different seeds must draw different schedules
// from the dedicated churn stream.
func TestOrchestratorChurnScenario(t *testing.T) {
	sc := OrchestratorChurn()
	if sc.Churn == 0 {
		t.Fatal("orchestrator-churn preset submits no jobs")
	}
	a := RunSeed(sc, 11)
	if a.Failed() {
		t.Fatalf("seed 11: %v", a)
	}
	b := RunSeed(sc, 12)
	if b.Failed() {
		t.Fatalf("seed 12: %v", b)
	}
	if a.TraceHash == b.TraceHash {
		t.Fatal("different seeds produced identical schedules; the churn stream is not being drawn")
	}
}

// TestScenarioShapes sanity-checks the preset catalog.
func TestScenarioShapes(t *testing.T) {
	scs := Scenarios()
	if len(scs) < 3 {
		t.Fatalf("want at least 3 scenarios, got %d", len(scs))
	}
	names := map[string]bool{}
	for _, sc := range scs {
		if names[sc.Name] {
			t.Errorf("duplicate scenario name %q", sc.Name)
		}
		names[sc.Name] = true
		if sc.Ranks < 2 || sc.Ops < 1 || sc.Horizon <= 0 {
			t.Errorf("scenario %q underspecified: %+v", sc.Name, sc)
		}
		if sc.SkipSeqBarrier {
			t.Errorf("scenario %q ships weakened by default", sc.Name)
		}
		w := sc.Weakened()
		if !w.SkipSeqBarrier || w.Name == sc.Name {
			t.Errorf("Weakened() of %q did not flag or rename: %+v", sc.Name, w)
		}
	}
}

// TestSeeds checks the seed-range helper used by sweeps and replay
// instructions.
func TestSeeds(t *testing.T) {
	s := Seeds(5, 3)
	want := []uint64{5, 6, 7}
	if len(s) != len(want) {
		t.Fatalf("Seeds(5,3) = %v", s)
	}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("Seeds(5,3) = %v, want %v", s, want)
		}
	}
}
