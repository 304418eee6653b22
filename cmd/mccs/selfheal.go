package main

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"mccs/internal/chaos"
	"mccs/internal/trace"
)

// runSelfheal runs the chaos self-heal scenario with the full
// detect→diagnose→recover loop attached and prints the remediation
// report: every seed-injected link fault must be detected by the
// diagnosis engine, quarantined by the remediation daemon, recovered
// through the policy controller (route re-pin, ring reversal, re-tune
// or graceful degradation) and re-admitted after probation — all in
// deterministic virtual time, so the same seed reproduces the same
// report byte for byte. It fails if any run violates a chaos invariant.
//
// The chaos harness attaches its own observers and hands back the
// recording and the diagnosis report, not the sampled series: of the
// shared observer flags -trace and -doctor work as everywhere (for the
// last seed), the telemetry flags are refused.
func runSelfheal(args []string, stdout io.Writer) error {
	fs := newFlagSet("selfheal", "[-seed N | -seeds N] [flags]", `Runs the chaos self-heal scenario with the diagnosis engine and the
remediation daemon attached: injected link faults are detected,
quarantined, remediated through the policy controller and re-admitted
after probation. Prints the deterministic remediation report per seed;
-jsonl archives the last seed's event log (CI runs this via 'make self-heal').`)
	seed := fs.Uint64("seed", 1, "run this seed only (ignored with -seeds > 1)")
	seeds := fs.Int("seeds", 1, "sweep seeds 1..N")
	jsonlPath := fs.String("jsonl", "", "write the remediation event log as JSONL here (last seed)")
	flaps := fs.Int("flaps", 0, "override the scenario's link-flap count")
	obs := observerFlags(fs)
	if err := parseFlags(fs, args, stdout); err != nil {
		return err
	}
	if obs.TelemetryPath != "" || obs.TelemetryEvery != 0 {
		return usagef("the chaos harness keeps no telemetry series: -telemetry and -telemetry-every are not supported")
	}

	sc := chaos.SelfHeal()
	if *flaps > 0 {
		sc.LinkFlaps = *flaps
	}
	first, last := *seed, *seed
	if *seeds > 1 {
		first, last = 1, uint64(*seeds)
	}
	var failed int
	for s := first; s <= last; s++ {
		hr := chaos.RunSeedHealed(sc, s)
		fmt.Fprintf(stdout, "%s\n", hr.Result.String())
		if hr.Err != nil {
			failed++
			continue
		}
		if err := hr.Remediation.WriteText(stdout); err != nil {
			return err
		}
		if ttrs := hr.Remediation.TimesToRecover(); len(ttrs) == 0 {
			fmt.Fprintf(stdout, "  (no completed recovery episodes this seed)\n")
		}
		fmt.Fprintln(stdout)
		if s != last {
			continue
		}
		report := hr.Doctor.WriteText
		if strings.HasSuffix(obs.DoctorPath, ".jsonl") {
			report = hr.Doctor.WriteJSONL
		}
		if err := errors.Join(
			writeTo(*jsonlPath, hr.Remediation.WriteJSONL),
			writeTo(obs.DoctorPath, report),
			writeTo(obs.TracePath, func(w io.Writer) error { return trace.WriteChrome(w, hr.Recording) }),
		); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d seeds violated an invariant", failed, int(last-first)+1)
	}
	return nil
}
