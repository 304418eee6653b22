package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"mccs/internal/collective"
	"mccs/internal/ncclsim"
	"mccs/internal/trace"
)

// TestTraceDeterministic runs the same Fig. 6 point twice with the same
// seed and requires the two trace files to be byte-identical: the
// recorder, the exporter and everything that feeds them must be free of
// map-iteration and other nondeterminism, or failing chaos seeds would
// not replay.
func TestTraceDeterministic(t *testing.T) {
	dir := t.TempDir()
	run := func(name string) ([]byte, trace.Recording) {
		t.Helper()
		path := filepath.Join(dir, name)
		_, err := RunSingleApp(SingleAppConfig{
			System: ncclsim.MCCS, Op: collective.AllReduce,
			Bytes: 1 << 20, NumGPUs: 4,
			Warmup: 1, Iters: 2, Trials: 1, Seed: 42,
			Observers: Observers{TracePath: path},
		})
		if err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		rec, err := trace.ReadChrome(f)
		if err != nil {
			t.Fatalf("trace does not parse: %v", err)
		}
		return raw, rec
	}

	rawA, recA := run("a.json")
	rawB, recB := run("b.json")
	if !bytes.Equal(rawA, rawB) {
		t.Error("same seed produced different trace bytes")
	}
	if fa, fb := recA.Fingerprint(), recB.Fingerprint(); fa != fb {
		t.Errorf("same seed produced different fingerprints: %#x vs %#x", fa, fb)
	}
	if len(recA.Spans) == 0 {
		t.Fatal("trace is empty")
	}

	// The recording must cover every layer: op lifecycles, ring steps,
	// fabric flows, and kernel launches all appear at LevelFull.
	kinds := map[trace.Kind]int{}
	for _, sp := range recA.Spans {
		kinds[sp.Kind]++
	}
	for _, k := range []trace.Kind{trace.KindOp, trace.KindStep, trace.KindCmd, trace.KindFlow} {
		if kinds[k] == 0 {
			t.Errorf("trace has no %v spans", k)
		}
	}
}

// TestCommTraceSurvivesUntraced checks the always-on ops recorder: with
// no -trace flag anywhere, the management API still returns per-rank
// collective history (the TS policy depends on it).
func TestCommTraceSurvivesUntraced(t *testing.T) {
	env, err := NewEnv(EnvOptions{System: ncclsim.MCCS})
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.Of(env.S)
	if rec == nil {
		t.Fatal("deployment did not attach a default recorder")
	}
	if rec.Level() != trace.LevelOps {
		t.Fatalf("default recorder level = %v, want LevelOps", rec.Level())
	}
}
