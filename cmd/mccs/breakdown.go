package main

import (
	"fmt"
	"io"
	"strings"

	"mccs/internal/harness"
	"mccs/internal/ncclsim"
	"mccs/internal/sim"
	"mccs/internal/spec"
	"mccs/internal/topo"
	"mccs/internal/workload"
)

// runBreakdown regenerates Figure 2: the training-time breakdown
// (idle / memcpy / compute / communication) of four synthetic production
// model profiles, measured by running each profile's training loop
// through the MCCS service on the testbed.
func runBreakdown(args []string, stdout io.Writer) error {
	fs := newFlagSet("breakdown", "[flags]", "Fig. 2: training-time breakdown per product group.")
	iters := fs.Int("iters", 5, "iterations per profile")
	if err := parseFlags(fs, args, stdout); err != nil {
		return err
	}

	env, err := harness.NewEnv(harness.EnvOptions{System: ncclsim.MCCS})
	if err != nil {
		return err
	}
	defer env.Close()
	profiles := workload.ProductGroupProfiles()
	results := make([]*workload.Result, len(profiles))
	// Each group trains on its own pair of GPUs (one per rack) so the
	// groups contend on the fabric like co-located production jobs.
	for i, tr := range profiles {
		i := i
		g := func(h topo.HostID, idx int) topo.GPUID { return env.Cluster.Hosts[h].GPUs[idx] }
		gpus := []topo.GPUID{g(topo.HostID(i/2), i%2), g(topo.HostID(2+i/2), i%2)}
		fut := workload.Launch(workload.RunConfig{
			Dep: env.Deployment, App: spec.AppID(tr.Name), Key: tr.Name,
			GPUs: gpus, Trace: tr, Iterations: *iters,
		})
		env.S.Go("collect", func(p *sim.Proc) { results[i] = fut.Wait(p) })
	}
	if err := env.S.Run(); err != nil {
		return err
	}

	fmt.Fprintln(stdout, "[Fig. 2] training-time breakdown per product group")
	fmt.Fprintf(stdout, "%-10s %8s %8s %8s %8s\n", "group", "idle", "memcpy", "compute", "comm")
	for i, r := range results {
		if r.Err != nil {
			return fmt.Errorf("profile %d: %w", i, r.Err)
		}
		b := r.Breakdown
		fmt.Fprintf(stdout, "%-10s %7.1f%% %7.1f%% %7.1f%% %7.1f%%  %s\n",
			strings.TrimPrefix(profiles[i].Name, "group-"),
			100*b.Idle, 100*b.Memcpy, 100*b.Compute, 100*b.Comm,
			bar(b))
	}
	return nil
}

// bar renders the stacked fractions the way the figure does.
func bar(b workload.Breakdown) string {
	const width = 40
	seg := func(f float64, ch byte) string {
		n := int(f*width + 0.5)
		return strings.Repeat(string(ch), n)
	}
	return seg(b.Idle, '.') + seg(b.Memcpy, 'm') + seg(b.Compute, 'c') + seg(b.Comm, '#')
}
