package main

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"mccs/internal/harness"
	"mccs/internal/orchestrator"
	"mccs/internal/spec"
)

// runChurn runs the tenant-churn experiment: a seeded Poisson-ish
// stream of training jobs arrives at the Fig. 6 testbed, and the
// lifecycle orchestrator admits them against quotas, packs them onto
// free GPUs locality-first, runs their traces through the MCCS service,
// tears them down on completion, and recomputes network policy on every
// arrival and departure. The report is the per-job JCT/queueing-delay
// table plus cluster utilization and the reconfiguration count.
func runChurn(args []string, stdout io.Writer) error {
	cfg := harness.DefaultChurnConfig()
	fs := newFlagSet("churn", "[flags]", "Tenant churn through the lifecycle orchestrator: per-job JCT and queueing delay, utilization, reconfigurations.")
	fs.IntVar(&cfg.Jobs, "jobs", cfg.Jobs, "number of jobs in the arrival stream")
	fs.Uint64Var(&cfg.Seed, "seed", cfg.Seed, "arrival-stream seed (same seed, same report)")
	fs.DurationVar(&cfg.MeanGap, "gap", cfg.MeanGap, "mean exponential inter-arrival gap")
	noReconfig := fs.Bool("no-reconfig", false, "disable churn-triggered FFA reconfiguration")
	fs.BoolVar(&cfg.Autotune, "autotune", false, "re-plan each surviving communicator's strategy on churn")
	placer := fs.String("placer", "binpack", "placement policy: binpack or rack-spread")
	quota := fs.String("quota", "", "per-tenant GPU quotas, e.g. tenant-a=4,tenant-b=8")
	obs := observerFlags(fs)
	if err := parseFlags(fs, args, stdout); err != nil {
		return err
	}
	if cfg.Jobs < 1 {
		return usagef("-jobs %d: the arrival stream needs at least one job", cfg.Jobs)
	}
	if cfg.MeanGap <= 0 {
		return usagef("-gap %v: the mean inter-arrival gap must be positive", cfg.MeanGap)
	}
	cfg.Reconfigure = !*noReconfig
	cfg.Observers = *obs
	switch *placer {
	case "binpack":
		cfg.Placer = orchestrator.BinPack{}
	case "rack-spread":
		cfg.Placer = orchestrator.RackSpread{}
	default:
		return usagef("unknown -placer %q (binpack or rack-spread)", *placer)
	}
	if *quota != "" {
		cfg.Quota = make(map[spec.AppID]int)
		for _, kv := range strings.Split(*quota, ",") {
			tenant, val, ok := strings.Cut(kv, "=")
			n, err := strconv.Atoi(val)
			if !ok || err != nil || n < 0 {
				return usagef("bad -quota entry %q (want tenant=N, N >= 0)", kv)
			}
			cfg.Quota[spec.AppID(tenant)] = n
		}
	}

	res, err := harness.RunChurn(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "[churn] %d jobs, seed %d, placer %s, reconfig=%v autotune=%v\n\n",
		cfg.Jobs, cfg.Seed, *placer, cfg.Reconfigure, cfg.Autotune)
	fmt.Fprint(stdout, harness.FormatChurnTable(res))
	fmt.Fprintln(stdout)
	reportArtifacts(stdout, cfg.Observers)
	return nil
}
