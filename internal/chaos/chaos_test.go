package chaos

import (
	"testing"
	"time"
)

// The sweep helpers and the presets only the tests run.

// Weakened returns a copy of the scenario with the Fig. 4 sequence-number
// barrier disabled, for bug-detection-power tests.
func (sc Scenario) Weakened() Scenario {
	sc.Name += "+skip-seq-barrier"
	sc.SkipSeqBarrier = true
	return sc
}

// Clean is a fault-free control: the link-flap workload shape with no
// injectors at all. The diagnosis false-positive tests require zero
// incidents on it; it is deliberately not part of Scenarios() (nothing
// to chaos-test without faults).
func Clean() Scenario {
	return Scenario{
		Name:  "clean",
		Ranks: 4, Ops: 6, MaxCount: 4096, Depth: 2,
		Horizon: 8 * time.Millisecond,
	}
}

// SweepResult aggregates one scenario swept over many seeds.
type SweepResult struct {
	Scenario string
	Results  []Result
}

// Failures returns the failing runs.
func (s SweepResult) Failures() []Result {
	var out []Result
	for _, r := range s.Results {
		if r.Failed() {
			out = append(out, r)
		}
	}
	return out
}

// Run sweeps a scenario over the given seeds. Failures carry the seed
// and trace tail needed to replay them exactly; use Seeds to build a
// deterministic seed range.
func Run(seeds []uint64, sc Scenario) SweepResult {
	out := SweepResult{Scenario: sc.Name}
	for _, seed := range seeds {
		out.Results = append(out.Results, RunSeed(sc, seed))
	}
	return out
}

// RunSeed executes one seeded chaos run and checks every invariant.
// The same (scenario, seed) pair always produces the identical event
// trace, so any failure replays exactly.
func RunSeed(sc Scenario, seed uint64) Result {
	res, _ := runSeed(sc, seed, runOpts{})
	return res
}

// Seeds returns n consecutive seeds starting at start. Consecutive
// integers are fine: each run splits its seed into independent PRNG
// streams with distinct odd multipliers.
func Seeds(start uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = start + uint64(i)
	}
	return out
}

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
