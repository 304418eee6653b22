package main

import (
	"fmt"
	"io"

	"mccs/internal/policy"
)

// runCrossrack regenerates Figure 3: the cross-rack flow count of a
// randomly ordered collective ring, normalized to the optimal ring, as a
// function of job size — for 2 hosts/rack (the production trace's shape,
// Fig. 3a) and 4 hosts/rack (Fig. 3b).
func runCrossrack(args []string, stdout io.Writer) error {
	fs := newFlagSet("crossrack", "[flags]", "Fig. 3: cross-rack ratio of a random ring, Monte Carlo over job sizes.")
	trials := fs.Int("trials", 2000, "Monte Carlo trials per job size")
	seed := fs.Int64("seed", 1, "random seed")
	if err := parseFlags(fs, args, stdout); err != nil {
		return err
	}

	sizes := []int{8, 16, 32, 64, 128, 256, 512, 1024}
	for _, hostsPerRack := range []int{2, 4} {
		label := "a (empirical shape)"
		if hostsPerRack == 4 {
			label = "b (simulated shape)"
		}
		fmt.Fprintf(stdout, "\n[Fig. 3%s] 8 GPUs/host, %d hosts/rack — cross-rack ratio of a random ring\n",
			label, hostsPerRack)
		fmt.Fprintf(stdout, "%-10s %10s %10s %10s\n", "job GPUs", "mean", "worst", "analytic")
		for _, pt := range policy.CrossRackSweep(8, hostsPerRack, sizes, *trials, *seed) {
			fmt.Fprintf(stdout, "%-10d %10.2f %10.2f %10.2f\n", pt.JobGPUs, pt.Mean, pt.Worst, pt.Analytic)
		}
	}
	return nil
}
