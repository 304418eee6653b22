package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mccs/internal/collective"
	"mccs/internal/harness"
	"mccs/internal/ncclsim"
)

// TestReplayPipeline runs a small benchmark with the doctor attached
// live and the flight recorder + telemetry exporting, then replays the
// dump through the CLI: the replay must render a report, agree with the
// live report on the incident set, and be byte-deterministic.
func TestReplayPipeline(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "run.trace.json")
	telemetryPath := filepath.Join(dir, "run.telemetry.jsonl")
	doctorPath := filepath.Join(dir, "run.doctor.txt")

	_, err := harness.RunSingleApp(harness.SingleAppConfig{
		System: ncclsim.MCCS, Op: collective.AllReduce,
		Bytes: 1 << 20, NumGPUs: 4, Warmup: 1, Iters: 2,
		Observers: harness.Observers{TracePath: tracePath, TelemetryPath: telemetryPath, DoctorPath: doctorPath},
	})
	if err != nil {
		t.Fatal(err)
	}

	live, err := os.ReadFile(doctorPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(live), "MCCS DOCTOR REPORT") {
		t.Errorf("live -doctor report missing header:\n%s", live)
	}

	replay := func() string {
		var out bytes.Buffer
		if err := runDoctor([]string{"-jsonl", filepath.Join(dir, "incidents.jsonl"), tracePath, telemetryPath}, &out); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	r1, r2 := replay(), replay()
	if r1 != r2 {
		t.Errorf("replay not byte-deterministic:\n%s\n---\n%s", r1, r2)
	}
	if !strings.Contains(r1, "MCCS DOCTOR REPORT") {
		t.Errorf("replay report missing header:\n%s", r1)
	}
	// A fault-free benchmark run must diagnose clean both live and on
	// replay (zero-false-positive property, end to end through the CLI).
	for name, rep := range map[string]string{"live": string(live), "replay": r1} {
		if !strings.Contains(rep, "healthy: no incidents") {
			t.Errorf("%s report not healthy on a fault-free run:\n%s", name, rep)
		}
	}
	jl, err := os.ReadFile(filepath.Join(dir, "incidents.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(jl), `"kind":"doctor"`) {
		t.Errorf("-jsonl output missing doctor header line:\n%s", jl)
	}
}

func TestRunBadArgs(t *testing.T) {
	var out bytes.Buffer
	if err := runDoctor(nil, &out); err == nil {
		t.Error("expected usage error with no args")
	}
	if err := runDoctor([]string{"does-not-exist.json"}, &out); err == nil {
		t.Error("expected error for missing trace file")
	}
}
