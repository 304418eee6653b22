package main

import (
	"fmt"
	"io"
	"sort"

	"mccs/internal/harness"
	"mccs/internal/ncclsim"
	"mccs/internal/spec"
	"mccs/internal/topo"
)

// runMulti regenerates Figure 8: per-application bus bandwidth of
// concurrent 128 MB AllReduce tenants in the four Fig. 5b placements,
// under NCCL, NCCL(OR), MCCS(-FFA) and MCCS.
func runMulti(args []string, stdout io.Writer) error {
	fs := newFlagSet("multi", "[flags]", "Fig. 8: per-tenant bus bandwidth in the four multi-application placements.\nObserver flags apply to the first run's first trial.")
	var mcfg harness.MultiAppConfig
	fs.Int64Var(&mcfg.Bytes, "bytes", 128<<20, "per-iteration AllReduce size")
	fs.IntVar(&mcfg.Iters, "iters", 20, "measured iterations")
	fs.IntVar(&mcfg.Warmup, "warmup", 4, "warmup iterations")
	fs.IntVar(&mcfg.Trials, "trials", 5, "ECMP-salt trials")
	fs.BoolVar(&mcfg.Autotune, "autotune", false, "run the strategy autotuner over every communicator before the measured loops (service-mode systems only)")
	obs := observerFlags(fs)
	if err := parseFlags(fs, args, stdout); err != nil {
		return err
	}
	if err := atLeastOne(fs, "iters", "trials"); err != nil {
		return err
	}
	written := *obs

	testbed, err := topo.BuildClos(topo.TestbedConfig())
	if err != nil {
		return err
	}
	for setup := 1; setup <= 4; setup++ {
		apps, err := harness.Setup(testbed, setup)
		if err != nil {
			return err
		}
		mcfg.Apps = apps
		fmt.Fprintf(stdout, "\n[Fig. 8] setup %d — bus bandwidth (GB/s), mean [p5, p95] over %d trials\n", setup, mcfg.Trials)
		fmt.Fprintf(stdout, "%-10s", "system")
		var names []spec.AppID
		for _, a := range apps {
			names = append(names, a.Name)
		}
		sort.Slice(names, func(i, j int) bool { return names[i] < names[j] })
		for _, n := range names {
			fmt.Fprintf(stdout, " %22s", n)
		}
		fmt.Fprintf(stdout, " %10s\n", "aggregate")
		for _, sys := range ncclsim.Systems() {
			mcfg.System = sys
			// Observe only the first run: one recording is the artifact.
			mcfg.Observers, *obs = *obs, harness.Observers{}
			res, err := harness.RunMultiApp(mcfg)
			if err != nil {
				return fmt.Errorf("setup %d %v: %w", setup, sys, err)
			}
			fmt.Fprintf(stdout, "%-10s", sys)
			for _, n := range names {
				s := res.BusBW[n]
				fmt.Fprintf(stdout, "  %5.2f [%5.2f, %5.2f]", s.Mean/1e9, s.P5/1e9, s.P95/1e9)
			}
			fmt.Fprintf(stdout, " %10.2f\n", res.Aggregate/1e9)
		}
	}
	reportArtifacts(stdout, written)
	return nil
}
