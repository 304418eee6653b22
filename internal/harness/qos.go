package harness

import (
	"cmp"
	"fmt"
	"time"

	"mccs/internal/mccsd"
	"mccs/internal/ncclsim"
	"mccs/internal/policy"
	"mccs/internal/sim"
	"mccs/internal/spec"
	"mccs/internal/workload"
)

// QoSSolution enumerates the Fig. 9 scheduling/QoS configurations.
type QoSSolution int

const (
	// SolutionECMP leaves routing to ECMP (rings still optimal).
	SolutionECMP QoSSolution = iota
	// SolutionFFA applies best-fit fair flow assignment.
	SolutionFFA
	// SolutionPFA reserves one cross-rack route for tenant A.
	SolutionPFA
	// SolutionPFATS additionally schedules tenant C around tenant B's
	// communication windows.
	SolutionPFATS
)

var qosNames = [...]string{"ECMP", "FFA", "PFA", "PFA+TS"}

func (s QoSSolution) String() string {
	if int(s) < len(qosNames) {
		return qosNames[s]
	}
	return "Unknown"
}

// QoSSolutions lists all four in the paper's order.
func QoSSolutions() []QoSSolution {
	return []QoSSolution{SolutionECMP, SolutionFFA, SolutionPFA, SolutionPFATS}
}

// QoSConfig parameterizes the Fig. 9 training-workload experiment: the
// paper's setup 3 with A training VGG-19 from scratch on 4 GPUs and B, C
// fine-tuning GPT-2.7B on 2 GPUs each.
type QoSConfig struct {
	Solution QoSSolution
	// IterationsA / IterationsBC set each job's length, at least 1.
	IterationsA  int
	IterationsBC int
	Observers
}

// QoSResult reports job completion times.
type QoSResult struct {
	JCT map[spec.AppID]time.Duration
	// MeanIter is the mean iteration time per app (steady-state view).
	MeanIter map[spec.AppID]time.Duration
}

// RunQoS executes the Fig. 9 experiment for one solution.
func RunQoS(cfg QoSConfig) (QoSResult, error) {
	// The full MCCS service, with route pinning off for the ECMP solution.
	sys := ncclsim.MCCS
	if cfg.Solution == SolutionECMP {
		sys = ncclsim.MCCSNoFA
	}
	env, err := NewEnv(EnvOptions{System: sys, Observers: cfg.Observers})
	if err != nil {
		return QoSResult{}, err
	}
	defer env.Close()
	return runQoS(env, cfg)
}

// runQoS runs the Fig. 9 jobs and controller on env.
func runQoS(env *Env, cfg QoSConfig) (QoSResult, error) {
	if cfg.IterationsA < 1 || cfg.IterationsBC < 1 {
		return QoSResult{}, fmt.Errorf("harness: jobs of %d (A) and %d (B, C) iterations: both must be at least 1", cfg.IterationsA, cfg.IterationsBC)
	}
	d := env.Deployment
	d.SetPriority("A", 2)
	d.SetPriority("B", 1)
	d.SetPriority("C", 0)
	apps, err := Setup(env.Cluster, 3) // A, B, C
	if err != nil {
		return QoSResult{}, err
	}
	futs := make([]*sim.Future[*workload.Result], len(apps))
	for i, app := range apps {
		rc := workload.RunConfig{
			Dep: d, App: app.Name, Key: "job" + string(app.Name), GPUs: app.GPUs,
			Trace: workload.GPT27BTensorParallel(1), Iterations: cfg.IterationsBC,
		}
		if app.Name == "A" {
			rc.Trace, rc.Iterations = workload.VGG19DataParallel(1), cfg.IterationsA
		}
		futs[i] = workload.Launch(rc)
	}

	allDone := &sim.Event{}
	bDone := &sim.Event{}
	env.S.Go("watchB", func(p *sim.Proc) {
		futs[1].Wait(p) // B
		bDone.Signal(env.S)
	})
	ctrl := runQoSController(env, cfg.Solution, allDone, bDone)

	res := QoSResult{
		JCT:      make(map[spec.AppID]time.Duration),
		MeanIter: make(map[spec.AppID]time.Duration),
	}
	var firstErr error
	env.S.Go("collect", func(p *sim.Proc) {
		// In placement order, not map order: how often this process parks
		// is part of the schedule.
		for i, fut := range futs {
			app := apps[i].Name
			r := fut.Wait(p)
			if r.Err != nil && firstErr == nil {
				firstErr = fmt.Errorf("job %s: %w", app, r.Err)
			}
			res.JCT[app] = r.JCT()
			var sum time.Duration
			for _, it := range r.IterTimes {
				sum += it
			}
			if len(r.IterTimes) > 0 {
				res.MeanIter[app] = sum / time.Duration(len(r.IterTimes))
			}
		}
		allDone.Signal(env.S)
	})
	if err := cmp.Or(env.S.Run(), ctrl.Err(), firstErr); err != nil {
		return QoSResult{}, err
	}
	if err := env.Export(); err != nil {
		return QoSResult{}, err
	}
	return res, nil
}

// runQoSController drives the provider-side policy for a solution: wait
// for all three communicators and apply flow assignment; for PFA+TS, once
// B has enough trace, keep re-deriving tenant C's traffic windows from it
// while B runs (the re-application re-anchors the window phase as B's
// cadence drifts), then clear them, or C would stay throttled by windows
// of a tenant that no longer exists. ECMP decides nothing: nil.
func runQoSController(env *Env, sol QoSSolution, stop, bDone *sim.Event) *policy.Controller {
	if sol == SolutionECMP {
		return nil
	}
	d, ctrl := env.Deployment, env.Controller()
	var bComm spec.CommID
	plan := policy.Plan{{
		When: policy.Every(time.Millisecond, func() bool { return d.NumComms() >= 3 }, nil),
		Do: func() (*sim.Latch, error) {
			if sol == SolutionFFA {
				return nil, ctrl.ApplyFFA()
			}
			bComm = commOf(d, "B")
			return nil, ctrl.ApplyPFA()
		},
	}}
	if sol == SolutionPFATS {
		plan = append(plan, policy.Row{When: policy.Every(5*time.Millisecond, func() bool {
			if stop.Done() {
				return true
			}
			tr, err := d.CommTrace(bComm, 0)
			return err == nil && len(tr) >= 8
		}, nil)}, policy.Row{
			When: policy.Every(250*time.Millisecond, func() bool { return stop.Done() || bDone.Done() }, scheduleC(ctrl, &bComm)),
			Do:   func() (*sim.Latch, error) { ctrl.ClearTSFor("C"); return nil, nil },
		})
	}
	ctrl.Run("qos-controller", plan)
	return ctrl
}

// commOf returns the ID of app's communicator (0 when it has none).
func commOf(d *mccsd.Deployment, app spec.AppID) (id spec.CommID) {
	for _, ci := range d.View() {
		if ci.App == app {
			id = ci.ID
		}
	}
	return id
}

// scheduleC is a TS poll's tick: schedule tenant C around the windows of
// *bComm, tenant B's communicator. B may be between collectives, with too
// little trace to derive them from; the next tick retries.
func scheduleC(ctrl *policy.Controller, bComm *spec.CommID) func() error {
	return func() error {
		_ = ctrl.ApplyTSFor(*bComm, 0, []spec.AppID{"C"})
		return nil
	}
}

// DynamicEvent marks a Fig. 10 timeline event.
type DynamicEvent struct {
	T    sim.Time
	Name string
}

// DynamicConfig parameterizes the Fig. 10 dynamic-policy experiment.
type DynamicConfig struct {
	// T1, T2: B and C arrival times. T3: administrator applies PFA
	// prioritizing A. T4: TS prioritizing B over C.
	T1, T2, T3, T4 time.Duration
	RunFor         time.Duration
	Seed           uint64
	Observers
}

// DefaultDynamicConfig spaces the arrivals and policy changes the way
// Fig. 10 does.
func DefaultDynamicConfig() DynamicConfig {
	return DynamicConfig{
		T1: 20 * time.Second, T2: 40 * time.Second,
		T3: 60 * time.Second, T4: 80 * time.Second,
		RunFor: 100 * time.Second,
	}
}

// DynamicResult is the Fig. 10 timeline: per-app iteration completion
// stamps (the cmd derives normalized throughput) plus the event marks.
type DynamicResult struct {
	IterEnds  map[spec.AppID][]sim.Time
	IterTimes map[spec.AppID][]time.Duration
	Events    []DynamicEvent
}

// RunDynamic executes the Fig. 10 experiment: A occupies the cluster,
// B and C arrive at t1/t2 under FFA, PFA prioritizes A at t3, TS
// prioritizes B over C at t4.
func RunDynamic(cfg DynamicConfig) (DynamicResult, error) {
	env, err := NewEnv(EnvOptions{System: ncclsim.MCCS, Salt: cfg.Seed, Observers: cfg.Observers})
	if err != nil {
		return DynamicResult{}, err
	}
	defer env.Close()
	d := env.Deployment
	d.SetPriority("A", 2)
	d.SetPriority("B", 1)
	d.SetPriority("C", 0)
	apps, err := Setup(env.Cluster, 3) // A, B, C
	if err != nil {
		return DynamicResult{}, err
	}
	ctrl := env.Controller()
	iterEnds := map[spec.AppID][]sim.Time{}
	iterTimes := map[spec.AppID][]time.Duration{}
	launch := func(pl AppPlacement, trace workload.Trace, at time.Duration) {
		app := pl.Name
		workload.Launch(workload.RunConfig{
			Dep: d, App: app, Key: "job" + string(app), GPUs: pl.GPUs,
			Trace: trace, Iterations: manyIters, StartAt: sim.Time(at),
			OnIteration: func(_ int, end sim.Time, dur time.Duration) {
				iterEnds[app] = append(iterEnds[app], end)
				iterTimes[app] = append(iterTimes[app], dur)
			},
		})
	}
	launch(apps[0], workload.VGG19DataParallel(1), 0)
	launch(apps[1], workload.GPT27BTensorParallel(1), cfg.T1)
	launch(apps[2], workload.GPT27BTensorParallel(1), cfg.T2)

	// Controller: re-apply FFA as tenants arrive, switch to PFA at T3,
	// add TS for C at T4 and keep re-deriving it.
	seen := 0
	var bComm spec.CommID
	ctrl.Run("dyn-controller", policy.Plan{
		{When: policy.Every(10*time.Millisecond, func() bool { return env.S.Now() >= sim.Time(cfg.T3) }, func() error {
			if n := d.NumComms(); n != seen {
				seen = n
				return ctrl.ApplyFFA()
			}
			return nil
		}), Do: func() (*sim.Latch, error) { return nil, ctrl.ApplyPFA() }},
		{When: policy.Every(10*time.Millisecond, func() bool { return env.S.Now() >= sim.Time(cfg.T4) }, nil),
			Do: func() (*sim.Latch, error) { bComm = commOf(d, "B"); return nil, nil }},
		{When: policy.Every(250*time.Millisecond, func() bool { return false }, scheduleC(ctrl, &bComm))},
	})

	// The jobs run past the horizon by design; iteration timelines are
	// reconstructed afterwards from the service's own tracing facility
	// (the same data the TS policy consumes).
	if err := cmp.Or(env.S.RunUntil(sim.Time(cfg.RunFor)), ctrl.Err()); err != nil {
		return DynamicResult{}, err
	}
	if err := env.Export(); err != nil {
		return DynamicResult{}, err
	}

	return DynamicResult{
		IterEnds:  iterEnds,
		IterTimes: iterTimes,
		Events: []DynamicEvent{
			{T: sim.Time(cfg.T1), Name: "B arrives"},
			{T: sim.Time(cfg.T2), Name: "C arrives"},
			{T: sim.Time(cfg.T3), Name: "PFA prioritizes A"},
			{T: sim.Time(cfg.T4), Name: "TS prioritizes B"},
		},
	}, nil
}
