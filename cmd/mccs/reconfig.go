package main

import (
	"fmt"
	"io"

	"mccs/internal/harness"
)

// runReconfig regenerates Figure 7: an 8-GPU AllReduce job on a ring of
// switches, degraded by a 75 Gbps background flow at t=7.5s and restored
// by a provider-issued ring reversal at t=12s.
func runReconfig(args []string, stdout io.Writer) error {
	cfg := harness.DefaultReconfigConfig()
	fs := newFlagSet("reconfig", "[flags]", "Fig. 7: a background flow degrades an 8-GPU ring job; a provider-issued reversal restores it.")
	fs.DurationVar(&cfg.RunFor, "run", cfg.RunFor, "experiment span")
	fs.DurationVar(&cfg.BgStart, "bg", cfg.BgStart, "background flow start")
	bgGbps := fs.Float64("bg-gbps", 75, "background flow rate (Gbit/s)")
	fs.DurationVar(&cfg.ReconfigAt, "reconfig", cfg.ReconfigAt, "ring reversal time")
	csv := fs.Bool("csv", false, "emit the full time series as CSV")
	fs.BoolVar(&cfg.Autotune, "autotune", false, "replace the scripted ring reversal with a strategy-autotuner pass that reads the background flow off the fabric")
	obs := observerFlags(fs)
	if err := parseFlags(fs, args, stdout); err != nil {
		return err
	}
	cfg.BgRate = *bgGbps * 125e6
	cfg.Observers = *obs

	res, err := harness.RunReconfigShowcase(cfg)
	if err != nil {
		return err
	}
	reportArtifacts(stdout, cfg.Observers)
	if cfg.TelemetryPath != "" && res.Telemetry != nil {
		fmt.Fprintf(stdout, "  %d samples, %d SLO violations\n", len(res.Telemetry.Samples), len(res.Telemetry.Violations))
	}

	fmt.Fprintf(stdout, "[Fig. 7] 8-GPU 128MB AllReduce on a 4-switch ring, %d iterations\n", len(res.Series))
	fmt.Fprintf(stdout, "  phase averages (algorithm bandwidth):\n")
	fmt.Fprintf(stdout, "    before background flow:     %6.2f GB/s\n", res.Before/1e9)
	fmt.Fprintf(stdout, "    degraded (bg at %6.2fs):   %6.2f GB/s\n", cfg.BgStart.Seconds(), res.Degraded/1e9)
	how := "reversal"
	if cfg.Autotune {
		how = "autotune"
	}
	fmt.Fprintf(stdout, "    recovered (%s %4.1fs): %6.2f GB/s\n", how, cfg.ReconfigAt.Seconds(), res.Recovered/1e9)
	if *csv {
		fmt.Fprintln(stdout, "t_seconds,algbw_bytes_per_sec")
		for _, pt := range res.Series {
			fmt.Fprintf(stdout, "%.6f,%.0f\n", pt.T.Seconds(), pt.AlgBW)
		}
	}
	return nil
}
