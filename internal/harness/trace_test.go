package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"mccs/internal/collective"
	"mccs/internal/ncclsim"
	"mccs/internal/sim"
	"mccs/internal/spec"
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
	rawB, _ := run("b.json")
	if !bytes.Equal(rawA, rawB) {
		t.Error("same seed produced different trace bytes")
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

// TestCommTraceSurvivesUntraced: with no observer anywhere, no recorder is
// attached, and the management API still returns per-rank collective history
// (the TS policy depends on it) — the service keeps it, not the recorder.
func TestCommTraceSurvivesUntraced(t *testing.T) {
	env, err := NewEnv(EnvOptions{System: ncclsim.MCCS})
	if err != nil {
		t.Fatal(err)
	}
	defer env.S.Shutdown()
	if trace.Of(env.S) != nil {
		t.Fatal("untraced environment has a flight recorder")
	}
	gpus, err := SingleAppGPUs(env.Cluster, 4)
	if err != nil {
		t.Fatal(err)
	}
	const iters = 3
	for rank, gpu := range gpus {
		env.S.Go("rank", func(p *sim.Proc) {
			f := env.Deployment.Service(env.Cluster.HostOfGPU(gpu)).Frontend("app")
			buf, err := f.MemAlloc(p, gpu, 4096, false)
			if err != nil {
				t.Error(err)
				return
			}
			comm, err := f.CommInitRank(p, "job", len(gpus), rank, gpu)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < iters; i++ {
				h, err := comm.AllReduce(p, nil, buf, 1024, nil)
				if err != nil {
					t.Error(err)
					return
				}
				h.Wait(p)
			}
		})
	}
	if err := env.S.Run(); err != nil {
		t.Fatal(err)
	}
	for rank := range gpus {
		hist, err := env.Deployment.CommTrace(env.Deployment.View()[0].ID, rank)
		if err != nil {
			t.Fatal(err)
		}
		if len(hist) != iters {
			t.Errorf("rank %d: CommTrace has %d entries, want %d", rank, len(hist), iters)
		}
	}
}

// TestTraceCapacityLeavesDynamicRunAlone: how big an observer's ring is
// cannot move Fig. 10. The TS controller reads its collective history from
// the service, so with the flight recorder holding 1 024 or 4 096 spans
// every tenant iterates exactly as in the untraced run. (When the history
// came out of the recorder, a small ring held too few of B's collectives
// and C's traffic windows, and with them every tenant's timeline, moved.)
func TestTraceCapacityLeavesDynamicRunAlone(t *testing.T) {
	cfg := DynamicConfig{T1: time.Second, T2: 2 * time.Second, T3: 3 * time.Second, T4: 4 * time.Second, RunFor: 8 * time.Second}
	bare, err := RunDynamic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, capacity := range []int{1024, 4096} {
		cfg.Observers = Observers{TraceCap: capacity}
		got, err := RunDynamic(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, app := range []spec.AppID{"A", "B", "C"} {
			if !slices.Equal(got.IterEnds[app], bare.IterEnds[app]) || !slices.Equal(got.IterTimes[app], bare.IterTimes[app]) {
				t.Errorf("TraceCap %d: tenant %s ran %d iterations, %d untraced, or at other times",
					capacity, app, len(got.IterEnds[app]), len(bare.IterEnds[app]))
			}
		}
	}
}
