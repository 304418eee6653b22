// Root benchmarks: one testing.B target per paper figure, each running a
// reduced-size instance of the corresponding experiment and reporting the
// headline metric via b.ReportMetric. The cmd/ tools run the full-size
// versions and print the paper's tables; these benches keep every
// experiment's code path exercised by `go test -bench`.
package mccs_test

import (
	"testing"
	"time"

	"mccs/internal/chaos"
	"mccs/internal/cluster"
	"mccs/internal/collective"
	"mccs/internal/diagnosis"
	"mccs/internal/harness"
	"mccs/internal/mccsd"
	"mccs/internal/ncclsim"
	"mccs/internal/policy"
	"mccs/internal/sim"
	"mccs/internal/spec"
	"mccs/internal/topo"
	"mccs/internal/tuner"
	"mccs/internal/workload"
)

// BenchmarkFig2Breakdown measures the training-time breakdown run: four
// production-profile jobs training concurrently through the service.
func BenchmarkFig2Breakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env, err := harness.NewEnv(harness.EnvOptions{System: ncclsim.MCCS})
		if err != nil {
			b.Fatal(err)
		}
		profiles := workload.ProductGroupProfiles()
		var commFrac float64
		results := make([]*workload.Result, len(profiles))
		for pi, tr := range profiles {
			pi := pi
			g := func(h topo.HostID, idx int) topo.GPUID { return env.Cluster.Hosts[h].GPUs[idx] }
			gpus := []topo.GPUID{g(topo.HostID(pi/2), pi%2), g(topo.HostID(2+pi/2), pi%2)}
			fut := workload.Launch(workload.RunConfig{
				Dep: env.Deployment, App: spec.AppID(tr.Name), Key: tr.Name,
				GPUs: gpus, Trace: tr, Iterations: 3,
			})
			env.S.Go("collect", func(p *sim.Proc) { results[pi] = fut.Wait(p) })
		}
		if err := env.S.Run(); err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
			commFrac += r.Breakdown.Comm
		}
		b.ReportMetric(100*commFrac/float64(len(results)), "mean-comm-%")
	}
}

// BenchmarkFig3CrossRack measures the Monte-Carlo cross-rack analysis.
func BenchmarkFig3CrossRack(b *testing.B) {
	sizes := []int{16, 64, 256, 1024}
	for i := 0; i < b.N; i++ {
		pts := policy.CrossRackSweep(8, 4, sizes, 500, int64(i+1))
		b.ReportMetric(pts[len(pts)-1].Mean, "ratio-1024gpu")
	}
}

// BenchmarkFig6SingleApp measures the single-application benchmark for
// the headline cell (8-GPU 128 MB AllReduce) across NCCL and MCCS and
// reports the speedup.
func BenchmarkFig6SingleApp(b *testing.B) {
	for i := 0; i < b.N; i++ {
		run := func(sys ncclsim.System) float64 {
			res, err := harness.RunSingleApp(harness.SingleAppConfig{
				System: sys, Op: collective.AllReduce, Bytes: 128 << 20,
				NumGPUs: 8, Warmup: 1, Iters: 3, Trials: 3, Seed: uint64(i),
			})
			if err != nil {
				b.Fatal(err)
			}
			return res.AlgBW.Mean
		}
		nccl := run(ncclsim.NCCL)
		mccsBW := run(ncclsim.MCCS)
		b.ReportMetric(mccsBW/1e9, "mccs-GB/s")
		b.ReportMetric(mccsBW/nccl, "speedup-vs-nccl")
	}
}

// BenchmarkFig7Reconfig measures the runtime-reconfiguration showcase
// (shortened timeline).
func BenchmarkFig7Reconfig(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := harness.DefaultReconfigConfig()
		cfg.RunFor = 6 * time.Second
		cfg.BgStart = 2 * time.Second
		cfg.ReconfigAt = 4 * time.Second
		res, err := harness.RunReconfigShowcase(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Recovered/res.Before, "recovery-frac")
		b.ReportMetric(res.Degraded/1e9, "degraded-GB/s")
	}
}

// BenchmarkFig8MultiApp measures the multi-application fairness run
// (setup 3, full MCCS).
func BenchmarkFig8MultiApp(b *testing.B) {
	env, err := harness.NewEnv(harness.EnvOptions{System: ncclsim.MCCS})
	if err != nil {
		b.Fatal(err)
	}
	apps, err := harness.Setup(env.Cluster, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := harness.RunMultiApp(harness.MultiAppConfig{
			System: ncclsim.MCCS, Apps: apps, Bytes: 128 << 20,
			Warmup: 2, Iters: 8, Trials: 1, Seed: uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.BusBW["A"].Mean/res.BusBW["B"].Mean, "A-over-B")
		b.ReportMetric(res.Aggregate/1e9, "aggregate-GB/s")
	}
}

// BenchmarkFig9QoS measures the training-workload QoS comparison (FFA vs
// PFA+TS, shortened).
func BenchmarkFig9QoS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ffa, err := harness.RunQoS(harness.QoSConfig{Solution: harness.SolutionFFA, IterationsA: 8, IterationsBC: 8})
		if err != nil {
			b.Fatal(err)
		}
		pfats, err := harness.RunQoS(harness.QoSConfig{Solution: harness.SolutionPFATS, IterationsA: 8, IterationsBC: 8})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(ffa.JCT["B"].Seconds(), "ffa-B-jct-s")
		b.ReportMetric(pfats.JCT["B"].Seconds(), "pfats-B-jct-s")
	}
}

// BenchmarkFig10Dynamic measures the dynamic-policy timeline (shortened).
func BenchmarkFig10Dynamic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.RunDynamic(harness.DynamicConfig{
			T1: 3 * time.Second, T2: 6 * time.Second,
			T3: 9 * time.Second, T4: 12 * time.Second,
			RunFor: 15 * time.Second, Seed: uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(res.IterEnds["A"])), "A-iterations")
	}
}

// BenchmarkFig11LargeScale measures a reduced large-scale simulation
// (random placement, random ring vs OR+FFA) and reports the mean speedup.
func BenchmarkFig11LargeScale(b *testing.B) {
	cfg := cluster.DefaultConfig()
	cfg.NumJobs = 20
	cfg.Iterations = 5
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		cfg.Strategy = cluster.StratRandomRing
		random, err := cluster.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		cfg.Strategy = cluster.StratORFFA
		orffa, err := cluster.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		_, mean, err := cluster.SpeedupCDF(random, orffa)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(mean, "mean-speedup")
	}
}

// --- Ablation benches for the design choices DESIGN.md calls out ---

// BenchmarkAblationConnSerialization compares the Fig. 7 recovery with
// the transport's per-connection FIFO disabled (messages processor-share
// the path) vs the default serialized connections. Without serialization,
// a connection's outstanding slices complete in a cluster; the phase skew
// the degraded period induces then turns the ring into a token-passing
// wave and the post-reversal bandwidth never returns to the clean level.
// This is the repository's most consequential substrate design decision
// (see DESIGN.md §7).
func BenchmarkAblationConnSerialization(b *testing.B) {
	for _, unser := range []bool{true, false} {
		name := "fifo"
		if unser {
			name = "processor-sharing"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := harness.DefaultReconfigConfig()
				cfg.RunFor = 8 * time.Second
				cfg.BgStart = 2 * time.Second
				cfg.ReconfigAt = 4 * time.Second
				cfg.UnserializedConns = unser
				res, err := harness.RunReconfigShowcase(cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Recovered/res.Before, "recovery-frac")
			}
		})
	}
}

// BenchmarkAblationTreeVsRing compares the binomial-tree extension to the
// ring algorithm at a latency-bound size (32 KB) and a bandwidth-bound
// size (32 MB): trees win small, rings win large — the NCCL trade-off the
// provider can now make per communicator.
func BenchmarkAblationTreeVsRing(b *testing.B) {
	cases := []struct {
		name      string
		bytes     int64
		threshold int64
	}{
		{"32KB/ring", 32 << 10, 0},
		{"32KB/tree", 32 << 10, 1 << 30},
		{"32MB/ring", 32 << 20, 0},
		{"32MB/tree", 32 << 20, 1 << 30},
	}
	for _, tc := range cases {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := harness.RunSingleApp(harness.SingleAppConfig{
					System: ncclsim.MCCS, Op: collective.AllReduce, Bytes: tc.bytes,
					NumGPUs: 8, Warmup: 1, Iters: 4, Trials: 1,
					Mutate: func(c *mccsd.Config) {
						c.Strategy = policy.OptimalRingStrategy(policy.RingStrategyOptions{
							PinRoutes: true, TreeThreshold: tc.threshold,
						})
					},
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.AlgBW.Mean/1e9, "GB/s")
			}
		})
	}
}

// BenchmarkAblationChannels compares 1 vs 2 rings for the 8-GPU setup:
// the second NIC-striped ring should roughly double throughput.
func BenchmarkAblationChannels(b *testing.B) {
	for _, ch := range []int{1, 2} {
		name := "channels=1"
		if ch == 2 {
			name = "channels=2"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := harness.RunSingleApp(harness.SingleAppConfig{
					System: ncclsim.MCCS, Op: collective.AllReduce, Bytes: 128 << 20,
					NumGPUs: 8, Warmup: 1, Iters: 3, Trials: 1,
					Mutate: func(c *mccsd.Config) {
						c.Strategy = policy.OptimalRingStrategy(policy.RingStrategyOptions{
							MaxChannels: ch, PinRoutes: true,
						})
					},
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.AlgBW.Mean/1e9, "GB/s")
			}
		})
	}
}

// BenchmarkTuner measures the decision layer itself: a full autotuner
// search over the Fig. 6 communicator — candidate generation, α-β model
// scoring of every candidate, ranked sort. This is control-plane cost,
// so it reports pure wall-clock per search plus the space size.
func BenchmarkTuner(b *testing.B) {
	b.Run("tuner-search", func(b *testing.B) {
		env, err := harness.NewEnv(harness.EnvOptions{System: ncclsim.MCCS})
		if err != nil {
			b.Fatal(err)
		}
		gpus, err := harness.SingleAppGPUs(env.Cluster, 8)
		if err != nil {
			b.Fatal(err)
		}
		info := &spec.CommInfo{ID: 1, App: "bench"}
		for i, g := range gpus {
			info.Ranks = append(info.Ranks, spec.RankInfo{
				Rank: i, GPU: g, Host: env.Cluster.HostOfGPU(g), NIC: env.Cluster.NICOfGPU(g),
			})
		}
		ctrl := policy.NewController(env.Deployment)
		const bytes = 64 << 20
		opts := policy.AutotuneOptions{Op: collective.AllReduce, Bytes: bytes}
		m := ctrl.TuneModel()
		sp := ctrl.TuneSpace(info, opts)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cands := tuner.Candidates(info, sp, bytes)
			d, err := m.Search(info, cands, collective.AllReduce, bytes)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(float64(len(d.Scored)), "candidates")
			}
		}
	})
}

// BenchmarkAblationAlgorithms compares the two dense AllReduce schedules
// end-to-end at a latency-bound size: halving-doubling's 2·log₂(n)
// rounds against the ring's 2(n-1) steps on the same locality order.
func BenchmarkAblationAlgorithms(b *testing.B) {
	cases := []struct {
		name string
		algo spec.Algorithm
	}{
		{"allreduce-ring", spec.AlgoRing},
		{"allreduce-halvingdoubling", spec.AlgoHD},
	}
	env, err := harness.NewEnv(harness.EnvOptions{System: ncclsim.MCCS})
	if err != nil {
		b.Fatal(err)
	}
	gpus, err := harness.SingleAppGPUs(env.Cluster, 8)
	if err != nil {
		b.Fatal(err)
	}
	var ranks []spec.RankInfo
	for i, g := range gpus {
		ranks = append(ranks, spec.RankInfo{
			Rank: i, GPU: g, Host: env.Cluster.HostOfGPU(g), NIC: env.Cluster.NICOfGPU(g),
		})
	}
	order := policy.LocalityRing(env.Cluster, ranks)
	for _, tc := range cases {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			st := spec.Strategy{
				Algorithm: tc.algo,
				Channels:  []spec.ChannelSpec{{Order: order, Route: spec.RouteECMP}},
			}
			for i := 0; i < b.N; i++ {
				res, err := harness.RunSingleApp(harness.SingleAppConfig{
					System: ncclsim.MCCS, Op: collective.AllReduce, Bytes: 32 << 10,
					NumGPUs: 8, Warmup: 1, Iters: 4, Trials: 1,
					Mutate: func(c *mccsd.Config) {
						c.Strategy = func(*topo.Cluster, *spec.CommInfo) spec.Strategy { return st.Clone() }
					},
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.AlgBW.Mean/1e9, "GB/s")
			}
		})
	}
}

// BenchmarkDoctorAnalyze measures the health-diagnosis engine itself
// (DESIGN.md §14): replaying a recorded chaos run — straggler faults,
// thousands of spans — through the full detector pipeline. The run is
// recorded once outside the timed loop, so the number is pure analysis
// cost; allocations are reported because the steady-state span path is
// required to be allocation-free (TestSteadyStateNoAllocs).
func BenchmarkDoctorAnalyze(b *testing.B) {
	b.Run("doctor-analyze", func(b *testing.B) {
		dr := chaos.RunSeedDiagnosed(chaos.DoctorStraggler(), 3)
		if dr.Failed() {
			b.Fatal(dr.Err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		var rep *diagnosis.Report
		for i := 0; i < b.N; i++ {
			rep = diagnosis.Analyze(dr.Recording, nil, diagnosis.DefaultConfig())
		}
		b.ReportMetric(float64(len(rep.Incidents)), "incidents")
		b.ReportMetric(float64(rep.Spans), "spans")
	})
}

// BenchmarkSchedChurn measures the tenant-lifecycle orchestrator
// (DESIGN.md §13): the default 8-job churn stream over the Fig. 6
// testbed with churn-triggered FFA reconfiguration, reporting the
// virtual makespan, cluster GPU utilization, and how many policy
// recomputes churn triggered.
func BenchmarkSchedChurn(b *testing.B) {
	b.Run("sched-churn", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := harness.RunChurn(harness.DefaultChurnConfig())
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(float64(res.Makespan)/1e6, "makespan-ms")
				b.ReportMetric(res.Utilization*100, "gpu-util-%")
				b.ReportMetric(float64(res.Reconfigs), "reconfigs")
			}
		}
	})
}

// BenchmarkOpRoundTrip measures the command path an operation crosses
// whatever its size: shim call → frontend → proxy runner → two channel
// programs → completion → tenant, for an 8-rank 32 KB AllReduce on the
// Fig. 6 testbed. One iteration is one round trip on every rank; allocs/op
// is the count mccsd.TestOpPathAllocatesOncePerRankOp pins: one handle per
// rank, 8.
func BenchmarkOpRoundTrip(b *testing.B) {
	env, err := harness.NewEnv(harness.EnvOptions{System: ncclsim.MCCS})
	if err != nil {
		b.Fatal(err)
	}
	defer env.S.Shutdown()
	gpus, err := harness.SingleAppGPUs(env.Cluster, 8)
	if err != nil {
		b.Fatal(err)
	}
	const count = 32 << 10 / 4
	var (
		gate   sim.WaitQueue
		quota  int
		rounds = make([]int, len(gpus))
		failed error
	)
	for rank, gpu := range gpus {
		env.S.Go("tenant", func(p *sim.Proc) {
			f := env.Deployment.Service(env.Cluster.HostOfGPU(gpu)).Frontend("bench")
			buf, err := f.MemAlloc(p, gpu, count*4, false)
			if err != nil {
				failed = err
				return
			}
			comm, err := f.CommInitRank(p, "bench", len(gpus), rank, gpu)
			if err != nil {
				failed = err
				return
			}
			for {
				for ; rounds[rank] < quota; rounds[rank]++ {
					h, err := comm.AllReduce(p, nil, buf, count, nil)
					if err != nil {
						failed = err
						return
					}
					h.Wait(p)
				}
				gate.Wait(p)
			}
		}).Daemon()
	}
	run := func(k int) {
		quota += k
		gate.WakeAll(env.S)
		if err := env.S.RunUntil(env.S.Now().Add(time.Duration(k+1) * 10 * time.Millisecond)); err != nil {
			b.Fatal(err)
		}
		for rank, n := range rounds {
			if n != quota || failed != nil {
				b.Fatalf("rank %d ran %d of %d round trips (%v)", rank, n, quota, failed)
			}
		}
	}
	run(20) // set-up and steady state: communicator built, rings and tables sized
	b.ReportAllocs()
	b.ResetTimer()
	run(b.N)
}
