package harness

import (
	"cmp"
	"fmt"
	"time"

	"mccs/internal/collective"
	"mccs/internal/mccsd"
	"mccs/internal/ncclsim"
	"mccs/internal/netsim"
	"mccs/internal/policy"
	"mccs/internal/sim"
	"mccs/internal/spec"
	"mccs/internal/telemetry"
	"mccs/internal/topo"
	"mccs/internal/transport"
	"mccs/internal/workload"
)

// ReconfigConfig parameterizes the Fig. 7 runtime-adaptation showcase:
// an 8-GPU AllReduce job on a ring of four switches, a rate-limited
// background flow appearing on one clockwise inter-switch link, and a
// provider-issued ring reversal that routes around it.
type ReconfigConfig struct {
	Bytes      int64         // per-iteration AllReduce size
	RunFor     time.Duration // total experiment span
	BgStart    time.Duration // when the background flow appears
	BgRate     float64       // background flow rate, bytes/sec
	ReconfigAt time.Duration // when the controller reverses the ring
	// UnserializedConns disables the transport's per-connection FIFO
	// (the ablation showing why message serialization matters for
	// recovery after phase skew).
	UnserializedConns bool
	// Observers: the trace shows the background flow start, the
	// reconfiguration barrier phases and the rate recovery; the telemetry
	// series shows link utilization collapsing on the contended link, the
	// SLO violations it produces and the recovery after the reversal; the
	// doctor reports the background flow as a degraded/contended-link
	// episode and the ring reversal as a reconfiguration barrier.
	Observers
	// Autotune replaces the hand-coded ring reversal at ReconfigAt with
	// a full autotuner pass: the cost model reads the background flow's
	// external load off the fabric and the search rediscovers the
	// reversal (or something better) on its own.
	Autotune bool
}

// DefaultReconfigConfig mirrors the paper's scenario: 100 G switch links,
// a 75 Gbps background flow at t=7.5 s, reconfiguration at t=12 s.
func DefaultReconfigConfig() ReconfigConfig {
	return ReconfigConfig{
		Bytes:      128 << 20,
		RunFor:     20 * time.Second,
		BgStart:    7500 * time.Millisecond,
		BgRate:     75 * 125e6,
		ReconfigAt: 12 * time.Second,
	}
}

// TimePoint is one iteration's bandwidth sample.
type TimePoint struct {
	T     sim.Time
	AlgBW float64
}

// ReconfigResult is the Fig. 7 time series plus phase averages.
type ReconfigResult struct {
	Series []TimePoint
	// Mean algorithm bandwidth before the background flow, between the
	// background flow and the reconfiguration, and after it.
	Before, Degraded, Recovered float64
	// Telemetry is the sampled metrics series when the run was
	// instrumented (TelemetryPath or TelemetryEvery set); nil otherwise.
	Telemetry *telemetry.Series
}

// RunReconfigShowcase executes the Fig. 7 experiment.
func RunReconfigShowcase(cfg ReconfigConfig) (ReconfigResult, error) {
	cluster, err := topo.BuildSwitchRing(topo.RingConfig{
		Switches: 4, GPUsPerHost: 2, NICsPerHost: 2,
		NICBps: 50 * 125e6, SwitchBps: 100 * 125e6,
	})
	if err != nil {
		return ReconfigResult{}, err
	}
	env, err := NewEnv(EnvOptions{
		System: ncclsim.MCCS, Cluster: cluster, Observers: cfg.Observers,
		Mutate: func(c *mccsd.Config) {
			if cfg.UnserializedConns {
				c.Transport = transport.DefaultConfig(cluster.IntraHostBps)
				c.Transport.UnserializedSends = true
			}
		},
	})
	if err != nil {
		return ReconfigResult{}, err
	}
	defer env.Close()
	s, fabric, dep := env.S, env.Fabric, env.Deployment

	var gpus []topo.GPUID
	for _, h := range cluster.Hosts {
		gpus = append(gpus, h.GPUs...)
	}
	var series []TimePoint
	var errs []error
	var commID spec.CommID

	// The job runs until RunUntil bounds the experiment. (Per-rank
	// completion times skew slightly, so a time-based loop exit would
	// desynchronize the ranks' iteration counts and deadlock the final
	// collective.)
	jobErr := firstErr(s, workload.Launch(workload.RunConfig{
		Dep: dep, App: "job", Key: "job", GPUs: gpus,
		Trace: loopTrace(collective.AllReduce, cfg.Bytes, false), Iterations: manyIters,
		OnReady: func(_ *sim.Proc, _ int, id spec.CommID) { commID = id },
		OnIteration: func(_ int, end sim.Time, dur time.Duration) {
			series = append(series, TimePoint{T: end, AlgBW: collective.AlgBW(cfg.Bytes, dur)})
		},
	}))

	// Background flow between two switches in the clockwise direction
	// (the direction the job's ring uses).
	s.At(sim.Time(cfg.BgStart), func() {
		link, err := cluster.RingLinkBetween(1, 2)
		if err != nil {
			errs = append(errs, err)
			return
		}
		l := cluster.Net.Link(link)
		fabric.StartFlow(netsim.FlowOpts{
			Src: l.From, Dst: l.To,
			Bytes:     0, // endless
			Route:     []netsim.LinkID{link},
			FixedRate: cfg.BgRate,
			External:  true,
		})
	})

	// The external centralized manager issues the ring reversal — either
	// hand-coded (the paper's scripted Fig. 7) or rediscovered by the
	// autotuner from the observed link load.
	s.Go("controller", func(p *sim.Proc) {
		p.SleepUntil(sim.Time(cfg.ReconfigAt))
		if commID == 0 {
			errs = append(errs, fmt.Errorf("harness: communicator not ready at reconfig time"))
			return
		}
		if cfg.Autotune {
			ctrl := policy.NewController(dep)
			if _, err := ctrl.Autotune(p, commID, policy.AutotuneOptions{
				Op: collective.AllReduce, Bytes: cfg.Bytes,
			}); err != nil {
				errs = append(errs, err)
				return
			}
			// Let a few post-install iterations land, then record the
			// achieved completion time against the prediction (visible
			// as predicted-vs-achieved in mccs top's TUNER section).
			p.Sleep(2 * time.Second)
			if _, err := ctrl.ObserveAchieved(commID, 0); err != nil {
				errs = append(errs, err)
			}
			return
		}
		latch, err := policy.Reverse(dep, commID)
		if err != nil {
			errs = append(errs, err)
			return
		}
		latch.Wait(p)
	})

	runErr := s.RunUntil(sim.Time(cfg.RunFor))
	if err := cmp.Or(*jobErr, runErr); err != nil {
		return ReconfigResult{}, err
	}
	if len(errs) > 0 {
		return ReconfigResult{}, errs[0]
	}
	if err := env.Export(); err != nil {
		return ReconfigResult{}, err
	}

	res := ReconfigResult{Series: series, Telemetry: telemetry.SeriesOf(env.Telemetry)}
	var nb, nd, nr int
	// The first post-reconfig sample straddles the barrier stall; skip a
	// short settle window when averaging the recovered phase.
	settle := sim.Time(cfg.ReconfigAt) + sim.Time(500*time.Millisecond)
	for _, pt := range series {
		switch {
		case pt.T < sim.Time(cfg.BgStart):
			res.Before += pt.AlgBW
			nb++
		case pt.T < sim.Time(cfg.ReconfigAt):
			res.Degraded += pt.AlgBW
			nd++
		case pt.T >= settle:
			res.Recovered += pt.AlgBW
			nr++
		}
	}
	if nb > 0 {
		res.Before /= float64(nb)
	}
	if nd > 0 {
		res.Degraded /= float64(nd)
	}
	if nr > 0 {
		res.Recovered /= float64(nr)
	}
	return res, nil
}
