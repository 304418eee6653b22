package harness

import (
	"cmp"
	"fmt"
	"time"

	"mccs/internal/collective"
	"mccs/internal/metrics"
	"mccs/internal/ncclsim"
	"mccs/internal/policy"
	"mccs/internal/sim"
	"mccs/internal/spec"
	"mccs/internal/topo"
	"mccs/internal/workload"
)

// AppPlacement assigns an application's ranks to GPUs (in user-rank
// order).
type AppPlacement struct {
	Name spec.AppID
	GPUs []topo.GPUID
}

// Setup builds one of the paper's Fig. 5b multi-application placements on
// a testbed cluster. The figure is not machine-readable; these placements
// reconstruct it from the constraints the evaluation text states: in
// setups 1, 2 and 4 every app uses one NIC per occupied host; in setup 3
// app A uses both GPUs/NICs of its hosts while B and C use one each
// (giving the 2:1:1 fair share the text checks).
func Setup(c *topo.Cluster, n int) ([]AppPlacement, error) {
	hosts := InterleavedHosts(c) // rack-interleaved user ordering
	g := func(h topo.HostID, idx int) topo.GPUID { return c.Hosts[h].GPUs[idx] }
	switch n {
	case 1:
		// Two 4-GPU apps, one GPU per host each.
		return []AppPlacement{
			{Name: "A", GPUs: []topo.GPUID{g(hosts[0], 0), g(hosts[1], 0), g(hosts[2], 0), g(hosts[3], 0)}},
			{Name: "B", GPUs: []topo.GPUID{g(hosts[0], 1), g(hosts[1], 1), g(hosts[2], 1), g(hosts[3], 1)}},
		}, nil
	case 2:
		// One 4-GPU app plus two 2-GPU apps, all cross-rack.
		return []AppPlacement{
			{Name: "A", GPUs: []topo.GPUID{g(hosts[0], 0), g(hosts[1], 0), g(hosts[2], 0), g(hosts[3], 0)}},
			{Name: "B", GPUs: []topo.GPUID{g(hosts[0], 1), g(hosts[1], 1)}},
			{Name: "C", GPUs: []topo.GPUID{g(hosts[2], 1), g(hosts[3], 1)}},
		}, nil
	case 3:
		// A: both GPUs (and NICs) of one host per rack; B, C: one GPU on
		// each of the remaining hosts. A's fair share is 2x B's and C's.
		h0, h1 := topo.HostID(0), topo.HostID(1) // rack 0
		h2, h3 := topo.HostID(2), topo.HostID(3) // rack 1
		return []AppPlacement{
			{Name: "A", GPUs: []topo.GPUID{g(h0, 0), g(h0, 1), g(h2, 0), g(h2, 1)}},
			{Name: "B", GPUs: []topo.GPUID{g(h1, 0), g(h3, 0)}},
			{Name: "C", GPUs: []topo.GPUID{g(h1, 1), g(h3, 1)}},
		}, nil
	case 4:
		// Two 2-GPU apps sharing one cross-rack host pair.
		h0, h2 := topo.HostID(0), topo.HostID(2)
		return []AppPlacement{
			{Name: "A", GPUs: []topo.GPUID{g(h0, 0), g(h2, 0)}},
			{Name: "B", GPUs: []topo.GPUID{g(h0, 1), g(h2, 1)}},
		}, nil
	default:
		return nil, fmt.Errorf("harness: unknown setup %d", n)
	}
}

// MultiAppConfig parameterizes a Fig. 8 run.
type MultiAppConfig struct {
	System ncclsim.System
	Apps   []AppPlacement
	Bytes  int64
	Warmup int
	Iters  int
	// Trials repeats the experiment with different ECMP label salts,
	// pooling samples (ECMP variance is the whole point of Fig. 8's
	// error bars). Iters and Trials must be at least 1.
	Trials int
	Seed   uint64
	// Observers attach to the first trial (see Observers).
	Observers
	// Autotune runs the strategy autotuner over every communicator
	// (in ID order) before the measured loops start, instead of /
	// in addition to FFA. Service-mode systems only.
	Autotune bool
}

// MultiAppResult reports the per-application bus bandwidth.
type MultiAppResult struct {
	BusBW map[spec.AppID]metrics.Summary
	// Aggregate is the summed mean bus bandwidth (the overall network
	// utilization indicator the paper discusses).
	Aggregate float64
}

// RunMultiApp runs all applications concurrently, each looping 128 MB
// (or cfg.Bytes) AllReduces, with the controller applying FFA for the
// full-MCCS system once all communicators exist. Samples pool across
// Trials ECMP-salt trials.
func RunMultiApp(cfg MultiAppConfig) (MultiAppResult, error) {
	if cfg.Iters < 1 || cfg.Trials < 1 {
		return MultiAppResult{}, fmt.Errorf("harness: %d iterations over %d trials: both must be at least 1", cfg.Iters, cfg.Trials)
	}
	pooled := make(map[spec.AppID][]float64, len(cfg.Apps))
	for trial := 0; trial < cfg.Trials; trial++ {
		vals, err := runMultiTrial(cfg, trial)
		if err != nil {
			return MultiAppResult{}, err
		}
		for app, v := range vals {
			pooled[app] = append(pooled[app], v...)
		}
	}
	res := MultiAppResult{BusBW: make(map[spec.AppID]metrics.Summary, len(cfg.Apps))}
	for _, a := range cfg.Apps {
		factor := collective.BusBWFactor(collective.AllReduce, len(a.GPUs))
		vals := pooled[a.Name]
		bus := make([]float64, len(vals))
		for i, v := range vals {
			bus[i] = v * factor
		}
		sum := metrics.Summarize(bus)
		res.BusBW[a.Name] = sum
		res.Aggregate += sum.Mean
	}
	return res, nil
}

func runMultiTrial(cfg MultiAppConfig, trial int) (map[spec.AppID][]float64, error) {
	env, err := trialEnv(EnvOptions{System: cfg.System, Salt: cfg.Seed, Observers: cfg.Observers}, trial)
	if err != nil {
		return nil, err
	}
	defer env.Close()
	ctrl := env.Controller()

	totalRanks := 0
	for _, a := range cfg.Apps {
		totalRanks += len(a.GPUs)
	}
	inited := sim.NewLatch(totalRanks)
	start := &sim.Event{}

	// Controller: wait for every communicator, apply FFA if this is full
	// MCCS, then release the measured loops.
	plan := policy.Plan{{When: policy.Opened(inited)}}
	// Autotune picks each communicator's shape (order, channels,
	// algorithm) in isolation; FFA then coordinates route pins *across*
	// tenants, which no per-communicator search can see. Every app has one
	// communicator, tuned in ascending ID order.
	if cfg.Autotune && !env.Deployment.Config().Baseline {
		for i := range cfg.Apps {
			var finish func()
			plan = append(plan,
				policy.Row{Do: func() (l *sim.Latch, err error) {
					l, finish, err = ctrl.StartAutotune(env.Deployment.View()[i].ID, policy.AutotuneOptions{
						Op: collective.AllReduce, Bytes: cfg.Bytes,
					})
					return l, err
				}},
				policy.Row{Do: func() (*sim.Latch, error) { finish(); return nil, nil }})
		}
	}
	plan = append(plan, policy.Row{Do: func() (*sim.Latch, error) {
		if cfg.System == ncclsim.MCCS {
			if err := ctrl.ApplyFFA(); err != nil {
				return nil, err
			}
		}
		start.Signal(env.S)
		return nil, nil
	}})
	ctrl.Run("controller", plan)

	ends := make(map[spec.AppID][]sim.Time, len(cfg.Apps))
	jobs := make([]*sim.Future[*workload.Result], len(cfg.Apps))
	for i, app := range cfg.Apps {
		app := app.Name
		jobs[i] = workload.Launch(workload.RunConfig{
			Dep: env.Deployment, App: app, Key: string(app), GPUs: cfg.Apps[i].GPUs,
			Trace: loopTrace(collective.AllReduce, cfg.Bytes, true), Iterations: cfg.Warmup + cfg.Iters,
			// Two collectives in flight keep each app's flows continuous
			// (nccl-tests enqueues timed iterations back-to-back), so
			// contention measurements see the steady state rather than
			// iteration-boundary slack.
			Depth: 2,
			OnReady: func(p *sim.Proc, _ int, _ spec.CommID) {
				inited.Done(env.S)
				start.Wait(p)
			},
			OnIteration: func(_ int, end sim.Time, _ time.Duration) {
				ends[app] = append(ends[app], end)
			},
		})
	}
	jobErr := firstErr(env.S, jobs...)
	runErr := env.S.Run()
	if err := cmp.Or(ctrl.Err(), *jobErr, runErr); err != nil {
		return nil, err
	}
	if err := env.Export(); err != nil {
		return nil, err
	}
	algbw := make(map[spec.AppID][]float64, len(cfg.Apps))
	for app, done := range ends {
		algbw[app] = gapBandwidth(done, cfg.Bytes, cfg.Warmup)
	}
	return algbw, nil
}
