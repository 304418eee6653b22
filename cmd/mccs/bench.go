package main

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"mccs/internal/collective"
	"mccs/internal/harness"
	"mccs/internal/metrics"
	"mccs/internal/ncclsim"
	"mccs/internal/topo"
)

// runBench regenerates Figure 6: single-application AllReduce/AllGather
// algorithm bandwidth on the 4-host testbed across data sizes, for the
// four systems NCCL, NCCL(OR), MCCS(-FA) and MCCS.
func runBench(args []string, stdout io.Writer) error {
	fs := newFlagSet("bench", "[flags]", "Fig. 6: algorithm bandwidth per data size and system on the 4-host testbed.\nObserver flags apply to the last cell's first trial (MCCS, or MCCS(auto) with -autotune).")
	var cell harness.SingleAppConfig
	opFlag := fs.String("op", "both", "collective: allreduce, allgather or both")
	gpusFlag := fs.String("gpus", "4,8", "comma-separated GPU counts (4 and/or 8)")
	sizesFlag := fs.String("sizes", "32K,128K,512K,2M,8M,32M,128M,512M", "comma-separated data sizes")
	fs.IntVar(&cell.Iters, "iters", 5, "measured iterations per trial")
	fs.IntVar(&cell.Warmup, "warmup", 2, "warmup iterations per trial")
	fs.IntVar(&cell.Trials, "trials", 5, "ECMP-salt trials (variance sampling)")
	autotune := fs.Bool("autotune", false, "add an MCCS(auto) column: full MCCS with the strategy autotuner picking each cell's strategy")
	obs := observerFlags(fs)
	if err := parseFlags(fs, args, stdout); err != nil {
		return err
	}
	if err := atLeastOne(fs, "iters", "trials"); err != nil {
		return err
	}

	sizes, err := parseSizes(*sizesFlag)
	if err != nil {
		return usageError{err}
	}
	ops, ok := map[string][]collective.Op{
		"allreduce": {collective.AllReduce},
		"allgather": {collective.AllGather},
		"both":      {collective.AllGather, collective.AllReduce},
	}[*opFlag]
	if !ok {
		return usagef("unknown -op %q (allreduce, allgather or both)", *opFlag)
	}
	testbed, err := topo.BuildClos(topo.TestbedConfig())
	if err != nil {
		return err
	}
	var gpuCounts []int
	for _, s := range strings.Split(*gpusFlag, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return usagef("bad -gpus entry %q", s)
		}
		if _, err := harness.SingleAppGPUs(testbed, n); err != nil {
			return usageError{err}
		}
		gpuCounts = append(gpuCounts, n)
	}
	// One column per system, plus the autotuned one when asked for.
	type column struct {
		name     string
		system   ncclsim.System
		autotune bool
	}
	var cols []column
	for _, sys := range ncclsim.Systems() {
		cols = append(cols, column{sys.String(), sys, false})
	}
	if *autotune {
		cols = append(cols, column{"MCCS(auto)", ncclsim.MCCS, true})
	}

	observers := observeLast(*obs, len(ops)*len(gpuCounts)*len(sizes)*len(cols))
	for _, cell.Op = range ops {
		for _, cell.NumGPUs = range gpuCounts {
			fmt.Fprintf(stdout, "\n[Fig. 6] %v, %d GPUs — algorithm bandwidth (GB/s), mean [p5, p95] over %d trials\n",
				cell.Op, cell.NumGPUs, cell.Trials)
			fmt.Fprintf(stdout, "%-8s", "size")
			for _, c := range cols {
				fmt.Fprintf(stdout, " %24s", c.name)
			}
			fmt.Fprintln(stdout)
			for _, cell.Bytes = range sizes {
				fmt.Fprintf(stdout, "%-8s", metrics.HumanBytes(cell.Bytes))
				for _, c := range cols {
					cell.System, cell.Autotune, cell.Observers = c.system, c.autotune, observers()
					res, err := harness.RunSingleApp(cell)
					if err != nil {
						return fmt.Errorf("%v %v %d: %w", c.name, cell.Op, cell.Bytes, err)
					}
					s := res.AlgBW
					fmt.Fprintf(stdout, "  %6.2f [%5.2f, %5.2f]", s.Mean/1e9, s.P5/1e9, s.P95/1e9)
				}
				fmt.Fprintln(stdout)
			}
		}
	}
	reportArtifacts(stdout, *obs)
	return nil
}

func parseSizes(s string) ([]int64, error) {
	var out []int64
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(strings.ToUpper(tok))
		mult := int64(1)
		switch {
		case strings.HasSuffix(tok, "K"):
			mult, tok = 1<<10, strings.TrimSuffix(tok, "K")
		case strings.HasSuffix(tok, "M"):
			mult, tok = 1<<20, strings.TrimSuffix(tok, "M")
		case strings.HasSuffix(tok, "G"):
			mult, tok = 1<<30, strings.TrimSuffix(tok, "G")
		}
		n, err := strconv.ParseInt(tok, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad size %q: %w", tok, err)
		}
		out = append(out, n*mult)
	}
	return out, nil
}
