package main

import (
	"fmt"
	"io"

	"mccs/internal/cluster"
	"mccs/internal/metrics"
)

// runSimcluster regenerates Figure 11: the 768-GPU large-scale
// simulation comparing random rings, optimal rings (OR) and OR with fair
// flow assignment (OR+FFA), under random and compact placement, reporting
// the CDF of per-job AllReduce speedups relative to random rings.
func runSimcluster(args []string, stdout io.Writer) error {
	fs := newFlagSet("simcluster", "[flags]", "Fig. 11: per-job AllReduce speedup of OR and OR+FFA over random rings on 768 GPUs.")
	cfg := cluster.DefaultConfig()
	fs.IntVar(&cfg.NumJobs, "jobs", cfg.NumJobs, "number of jobs")
	fs.IntVar(&cfg.Iterations, "iters", cfg.Iterations, "AllReduce iterations per job")
	runs := fs.Int("runs", 5, "independent runs (seeds) to average")
	fs.DurationVar(&cfg.MeanArrival, "arrival", cfg.MeanArrival, "mean Poisson inter-arrival")
	csv := fs.Bool("csv", false, "emit the speedup CDFs as CSV")
	if err := parseFlags(fs, args, stdout); err != nil {
		return err
	}

	for _, cfg.Placement = range []cluster.Placement{cluster.PlacementRandom, cluster.PlacementCompact} {
		var orAll, ffaAll []float64
		for cfg.Seed = 1; cfg.Seed <= int64(*runs); cfg.Seed++ {
			var res [3]*cluster.RunResult // random ring, OR, OR+FFA
			for i, st := range []cluster.Strategy{cluster.StratRandomRing, cluster.StratOR, cluster.StratORFFA} {
				cfg.Strategy = st
				var err error
				if res[i], err = cluster.Run(cfg); err != nil {
					return fmt.Errorf("%v %v seed %d: %w", cfg.Placement, st, cfg.Seed, err)
				}
			}
			orSp, err := cluster.Speedups(res[0], res[1])
			if err != nil {
				return err
			}
			ffaSp, err := cluster.Speedups(res[0], res[2])
			if err != nil {
				return err
			}
			orAll = append(orAll, orSp...)
			ffaAll = append(ffaAll, ffaSp...)
		}
		fmt.Fprintf(stdout, "\n[Fig. 11] %v placement — AllReduce speedup vs random ring (%d jobs x %d runs)\n",
			cfg.Placement, cfg.NumJobs, *runs)
		so := metrics.Summarize(orAll)
		sf := metrics.Summarize(ffaAll)
		fmt.Fprintf(stdout, "  OR:     mean %.2fx  (p5 %.2fx, p50 %.2fx, p95 %.2fx)\n", so.Mean, so.P5, so.P50, so.P95)
		fmt.Fprintf(stdout, "  OR+FFA: mean %.2fx  (p5 %.2fx, p50 %.2fx, p95 %.2fx)\n", sf.Mean, sf.P5, sf.P50, sf.P95)
		if *csv {
			fmt.Fprintln(stdout, "  strategy,speedup,cdf_fraction")
			for _, pt := range metrics.CDF(orAll) {
				fmt.Fprintf(stdout, "  OR,%.4f,%.4f\n", pt.Value, pt.Fraction)
			}
			for _, pt := range metrics.CDF(ffaAll) {
				fmt.Fprintf(stdout, "  OR+FFA,%.4f,%.4f\n", pt.Value, pt.Fraction)
			}
		}
	}
	return nil
}
