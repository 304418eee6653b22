package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// invocations is the smoke table: every subcommand runs in-process on a
// tiny configuration. $TRACE and $TEL in args are replaced by the files
// the "reconfig" case writes.
var invocations = []struct {
	cmd  string
	args []string
	want string // substring of stdout
}{
	{cmd: "bench", args: []string{"-gpus=4", "-sizes=1M", "-iters=1", "-warmup=0", "-trials=1"}, want: "[Fig. 6]"},
	{cmd: "bench", args: []string{"-gpus=8", "-op=allreduce", "-sizes=64K", "-iters=2", "-warmup=0", "-trials=1", "-autotune"}, want: "MCCS(auto)"},
	{cmd: "breakdown", args: []string{"-iters=1"}, want: "[Fig. 2]"},
	{cmd: "crossrack", args: []string{"-trials=20", "-seed=1"}, want: "[Fig. 3"},
	{cmd: "multi", args: []string{"-bytes=4194304", "-iters=2", "-warmup=1", "-trials=1"}, want: "[Fig. 8] setup 4"},
	{cmd: "qos", args: []string{"-iters-a=2", "-iters-bc=2"}, want: "PFA+TS"},
	{cmd: "qos", args: []string{"-dynamic"}, want: "[Fig. 10]"},
	{cmd: "reconfig", args: []string{"-run=1s", "-bg=300ms", "-reconfig=600ms", "-trace=$TRACE", "-telemetry=$TEL"}, want: "recovered (reversal"},
	{cmd: "simcluster", args: []string{"-jobs=3", "-iters=2", "-runs=1"}, want: "OR+FFA"},
	{cmd: "churn", args: []string{"-jobs=3", "-quota=tenant-a=4"}, want: "gpu utilization"},
	{cmd: "selfheal", args: []string{"-seed=1"}, want: "readmit"},
	{cmd: "top", args: []string{"$TEL"}, want: "BUSIEST LINKS"},
	{cmd: "top", args: []string{"-live", "-scenario=churn"}, want: "SCHED"},
	{cmd: "trace", args: []string{"summarize", "$TRACE"}, want: "collectives"},
	{cmd: "trace", args: []string{"dump", "$TRACE"}, want: "AllReduce#"},
	{cmd: "doctor", args: []string{"$TRACE", "$TEL"}, want: "MCCS DOCTOR REPORT"},
}

// TestSubcommandSmoke runs the table through dispatch, the same path
// main takes: flag drift, a panic on start-up or a broken harness wiring
// fails here without a `go run` per binary. The case that writes the
// shared files runs first; the rest run in parallel.
func TestSubcommandSmoke(t *testing.T) {
	dir := t.TempDir()
	files := strings.NewReplacer("$TRACE", filepath.Join(dir, "t.json"), "$TEL", filepath.Join(dir, "tel.jsonl"))
	run := func(t *testing.T, cmd string, tcArgs []string, want string) {
		args := []string{cmd}
		for _, a := range tcArgs {
			args = append(args, files.Replace(a))
		}
		var stdout, stderr bytes.Buffer
		if code := dispatch(args, &stdout, &stderr); code != 0 {
			t.Errorf("mccs %s: exit %d\n%s%s", strings.Join(args, " "), code, stdout.String(), stderr.String())
		} else if !strings.Contains(stdout.String(), want) {
			t.Errorf("mccs %s: output missing %q:\n%s", strings.Join(args, " "), want, stdout.String())
		}
	}
	ran := map[string]bool{}
	for _, tc := range invocations {
		ran[tc.cmd] = true
		if tc.cmd == "reconfig" {
			run(t, tc.cmd, tc.args, tc.want)
		}
	}
	t.Run("parallel", func(t *testing.T) {
		for _, tc := range invocations {
			if tc := tc; tc.cmd != "reconfig" {
				t.Run(tc.cmd, func(t *testing.T) {
					t.Parallel()
					run(t, tc.cmd, tc.args, tc.want)
				})
			}
		}
	})

	var help, stderr bytes.Buffer
	if code := dispatch([]string{"help"}, &help, &stderr); code != 0 {
		t.Fatalf("mccs help: exit %d", code)
	}
	for _, c := range commands {
		if !ran[c.name] {
			t.Errorf("subcommand %q has no smoke case", c.name)
		}
		if !strings.Contains(help.String(), "\n  "+c.name+" ") {
			t.Errorf("mccs help does not list %q:\n%s", c.name, help.String())
		}
	}
}

// TestUsageErrorsExitTwo: a bad invocation is refused before any
// experiment runs, with exit code 2 and a message naming the problem;
// a failing run exits 1.
func TestUsageErrorsExitTwo(t *testing.T) {
	cases := []struct {
		args []string
		code int
		want string // substring of stderr
	}{
		{nil, 2, "usage: mccs"},
		{[]string{"frobnicate"}, 2, "unknown subcommand"},
		{[]string{"bench", "-no-such-flag"}, 2, "not defined"},
		{[]string{"bench", "-gpus=5"}, 2, "5 GPUs over 4 hosts"},
		{[]string{"bench", "-op=allscatter"}, 2, "unknown -op"},
		{[]string{"bench", "-sizes=big"}, 2, "bad size"},
		{[]string{"bench", "-iters=0"}, 2, "-iters 0"},
		{[]string{"bench", "-trials=-1"}, 2, "-trials -1"},
		{[]string{"multi", "-iters=0"}, 2, "-iters 0"},
		{[]string{"multi", "-trials=0"}, 2, "-trials 0"},
		{[]string{"qos", "-iters-a=0"}, 2, "-iters-a 0"},
		{[]string{"qos", "-iters-bc=-3"}, 2, "-iters-bc -3"},
		{[]string{"churn", "-placer=random"}, 2, "unknown -placer"},
		{[]string{"churn", "-quota=tenant-a"}, 2, "bad -quota"},
		{[]string{"churn", "-jobs=0"}, 2, "-jobs 0"},
		{[]string{"churn", "-gap=-5ms"}, 2, "-gap -5ms"},
		{[]string{"churn", "-quota=tenant-a=-1"}, 2, "bad -quota"},
		{[]string{"top", "-live", "-scenario=qos"}, 2, "unknown -scenario"},
		{[]string{"top"}, 2, "telemetry.jsonl"},
		{[]string{"trace", "explode", "x.json"}, 2, "summarize|dump"},
		{[]string{"selfheal", "-telemetry=x.jsonl"}, 2, "not supported"},
		{[]string{"doctor", "does-not-exist.json"}, 1, "does-not-exist.json"},
		{[]string{"churn", "-jobs=1", "-trace=/no/such/dir/t.json"}, 1, "/no/such/dir"},
	}
	for _, tc := range cases {
		var stdout, stderr bytes.Buffer
		if code := dispatch(tc.args, &stdout, &stderr); code != tc.code {
			t.Errorf("mccs %v: exit %d, want %d\n%s", tc.args, code, tc.code, stderr.String())
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("mccs %v: stderr missing %q:\n%s", tc.args, tc.want, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("mccs %v: wrote to stdout before failing:\n%s", tc.args, stdout.String())
		}
	}
}

// TestObserverFlagsEverywhere: every experiment subcommand takes the
// shared observer flags and writes artifacts that parse back — a Chrome
// trace `mccs trace summarize` can attribute, a telemetry series, an
// incident JSONL.
func TestObserverFlagsEverywhere(t *testing.T) {
	cases := []struct {
		cmd  string
		args []string
	}{
		{"bench", []string{"-gpus=4", "-sizes=1M", "-iters=1", "-warmup=0", "-trials=1"}},
		{"multi", []string{"-bytes=4194304", "-iters=2", "-warmup=1", "-trials=1"}},
		{"qos", []string{"-iters-a=2", "-iters-bc=2"}},
		{"reconfig", []string{"-run=1s", "-bg=300ms", "-reconfig=600ms"}},
		{"churn", []string{"-jobs=3"}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.cmd, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			tracePath, telPath, docPath := filepath.Join(dir, "t.json"), filepath.Join(dir, "tel.jsonl"), filepath.Join(dir, "inc.jsonl")
			args := append([]string{tc.cmd}, tc.args...)
			args = append(args, "-trace="+tracePath, "-telemetry="+telPath, "-telemetry-every=10ms", "-doctor="+docPath)
			var stdout, stderr bytes.Buffer
			if code := dispatch(args, &stdout, &stderr); code != 0 {
				t.Fatalf("mccs %v: exit %d\n%s", args, code, stderr.String())
			}
			for _, hint := range []string{"trace written to " + tracePath, "telemetry written to " + telPath, "doctor report written to " + docPath} {
				if !strings.Contains(stdout.String(), hint) {
					t.Errorf("stdout missing %q", hint)
				}
			}

			if rec, err := loadTrace(tracePath); err != nil || len(rec.Spans) == 0 {
				t.Fatalf("trace does not parse back: %d spans, %v", len(rec.Spans), err)
			}
			var sum, sumErr bytes.Buffer
			if code := dispatch([]string{"trace", "summarize", tracePath}, &sum, &sumErr); code != 0 {
				t.Fatalf("mccs trace summarize: exit %d\n%s", code, sumErr.String())
			}
			for _, want := range []string{"trace:", "collectives"} {
				if !strings.Contains(sum.String(), want) {
					t.Errorf("summary missing %q:\n%s", want, sum.String())
				}
			}

			se, err := loadSeries(telPath)
			if err != nil || len(se.Samples) == 0 {
				t.Fatalf("telemetry does not parse back: %v", err)
			}
			if se.Interval != 10*time.Millisecond {
				t.Errorf("telemetry interval = %v, want the -telemetry-every value", se.Interval)
			}

			raw, err := os.ReadFile(docPath)
			if err != nil {
				t.Fatalf("doctor file not written: %v", err)
			}
			for i, line := range bytes.Split(bytes.TrimSpace(raw), []byte("\n")) {
				if !json.Valid(line) {
					t.Fatalf("doctor JSONL line %d is not JSON: %s", i, line)
				}
			}
			if !bytes.Contains(raw, []byte(`"kind":"doctor"`)) {
				t.Errorf("doctor JSONL missing its header record:\n%s", raw)
			}
		})
	}
}
