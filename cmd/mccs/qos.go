package main

import (
	"fmt"
	"io"
	"time"

	"mccs/internal/harness"
	"mccs/internal/sim"
	"mccs/internal/spec"
)

// runQoS regenerates Figure 9 (training-workload JCT under ECMP / FFA /
// PFA / PFA+TS) and, with -dynamic, Figure 10 (throughput timeline under
// dynamic arrivals and policy changes).
func runQoS(args []string, stdout io.Writer) error {
	fs := newFlagSet("qos", "[flags]", "Fig. 9: training JCT under ECMP/FFA/PFA/PFA+TS; -dynamic runs the Fig. 10 timeline.\nObserver flags apply to the first solution's run (ECMP), or to the -dynamic run.")
	dynamic := fs.Bool("dynamic", false, "run the Fig. 10 dynamic-arrival timeline instead of Fig. 9")
	itersA := fs.Int("iters-a", 30, "VGG (tenant A) iterations")
	itersBC := fs.Int("iters-bc", 30, "GPT (tenants B, C) iterations")
	obs := observerFlags(fs)
	if err := parseFlags(fs, args, stdout); err != nil {
		return err
	}
	if err := atLeastOne(fs, "iters-a", "iters-bc"); err != nil {
		return err
	}
	if *dynamic {
		return runDynamic(stdout, *obs)
	}
	written := *obs

	fmt.Fprintln(stdout, "[Fig. 9] job completion time, setup 3: A=VGG-19 DP (4 GPUs, prio 2),")
	fmt.Fprintln(stdout, "         B,C=GPT-2.7B TP (2 GPUs each; B prio 1, C prio 0)")
	type row struct {
		sol harness.QoSSolution
		res harness.QoSResult
	}
	var rows []row
	for _, sol := range harness.QoSSolutions() {
		cfg := harness.QoSConfig{Solution: sol, IterationsA: *itersA, IterationsBC: *itersBC}
		cfg.Observers, *obs = *obs, harness.Observers{} // first solution only
		res, err := harness.RunQoS(cfg)
		if err != nil {
			return fmt.Errorf("%v: %w", sol, err)
		}
		rows = append(rows, row{sol, res})
	}
	ffa := rows[1].res // normalization baseline, as in the paper
	fmt.Fprintf(stdout, "%-8s %28s %28s %28s\n", "solution", "VGG (A)", "GPT (B)", "GPT (C)")
	for _, r := range rows {
		fmt.Fprintf(stdout, "%-8s", r.sol)
		for _, app := range []spec.AppID{"A", "B", "C"} {
			norm := float64(r.res.JCT[app]) / float64(ffa.JCT[app])
			fmt.Fprintf(stdout, "      %10v (%.2fx FFA)", r.res.JCT[app].Round(time.Millisecond), norm)
		}
		fmt.Fprintln(stdout)
	}
	reportArtifacts(stdout, written)
	return nil
}

func runDynamic(stdout io.Writer, obs harness.Observers) error {
	cfg := harness.DefaultDynamicConfig()
	cfg.Observers = obs
	res, err := harness.RunDynamic(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, "[Fig. 10] normalized training throughput with dynamic arrivals and QoS")
	for _, ev := range res.Events {
		fmt.Fprintf(stdout, "  event %-20s t=%vs\n", ev.Name, ev.T.Seconds())
	}
	// Per-app throughput in 5-second buckets, normalized to each app's
	// best observed bucket (the paper normalizes to the FFA level).
	bucket := 5 * time.Second
	nBuckets := int(cfg.RunFor / bucket)
	fmt.Fprintf(stdout, "%-8s", "t(s)")
	for _, app := range []spec.AppID{"A", "B", "C"} {
		fmt.Fprintf(stdout, " %8s", app)
	}
	fmt.Fprintln(stdout, "   (iterations/s, 5s buckets)")
	rate := func(app spec.AppID, b int) float64 {
		lo := sim.Time(time.Duration(b) * bucket)
		hi := lo.Add(bucket)
		n := 0
		for _, e := range res.IterEnds[app] {
			if e >= lo && e < hi {
				n++
			}
		}
		return float64(n) / bucket.Seconds()
	}
	for b := 0; b < nBuckets; b++ {
		fmt.Fprintf(stdout, "%-8d", b*5)
		for _, app := range []spec.AppID{"A", "B", "C"} {
			fmt.Fprintf(stdout, " %8.2f", rate(app, b))
		}
		fmt.Fprintln(stdout)
	}
	reportArtifacts(stdout, obs)
	return nil
}
