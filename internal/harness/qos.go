package harness

import (
	"fmt"
	"time"

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
	runQoSController(env, cfg.Solution, allDone, bDone)

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
	if err := env.S.Run(); err != nil {
		return QoSResult{}, err
	}
	if firstErr != nil {
		return QoSResult{}, firstErr
	}
	if err := env.Export(); err != nil {
		return QoSResult{}, err
	}
	return res, nil
}

// runQoSController drives the provider-side policy for a solution: wait
// for all three communicators, apply flow assignment, and for PFA+TS keep
// re-deriving tenant C's traffic windows from tenant B's live trace (the
// re-application re-anchors the window phase as B's cadence drifts).
func runQoSController(env *Env, sol QoSSolution, stop, bDone *sim.Event) {
	if sol == SolutionECMP {
		return
	}
	d := env.Deployment
	ctrl := policy.NewController(d)
	// Only tenant A (priority 2) is PFA-prioritized; B's priority 1 is
	// used later by TS, not by route reservation.
	ctrl.PrioThreshold = 2
	env.S.GoDaemon("qos-controller", func(p *sim.Proc) {
		for d.NumComms() < 3 {
			p.Sleep(time.Millisecond)
		}
		switch sol {
		case SolutionFFA:
			if err := ctrl.ApplyFFA(); err != nil {
				panic(err)
			}
		case SolutionPFA, SolutionPFATS:
			if err := ctrl.ApplyPFA(); err != nil {
				panic(err)
			}
		}
		if sol != SolutionPFATS {
			return
		}
		// Find B's communicator, wait for enough trace, then keep C
		// scheduled around B's windows.
		var bComm spec.CommID
		for _, ci := range d.View() {
			if ci.App == "B" {
				bComm = ci.ID
			}
		}
		for !stop.Done() {
			tr, err := d.CommTrace(bComm, 0)
			if err == nil && len(tr) >= 8 {
				break
			}
			p.Sleep(5 * time.Millisecond)
		}
		// Keep re-deriving the windows while B runs (the periodic
		// re-application re-anchors the window phase as B's cadence
		// drifts). Once the prioritized job completes, clear the stale
		// schedule — otherwise C would stay throttled by windows derived
		// from a tenant that no longer exists.
		for !stop.Done() && !bDone.Done() {
			if err := ctrl.ApplyTSFor(bComm, 0, []spec.AppID{"C"}); err != nil {
				// B may be between collectives; retry on next cycle.
				_ = err
			}
			p.Sleep(250 * time.Millisecond)
		}
		ctrl.ClearTSFor("C")
	})
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
	ctrl := policy.NewController(d)
	ctrl.PrioThreshold = 2

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
	// add TS for C at T4.
	env.S.GoDaemon("dyn-controller", func(p *sim.Proc) {
		seen := 0
		for p.Now() < sim.Time(cfg.T3) {
			if n := d.NumComms(); n != seen {
				seen = n
				if err := ctrl.ApplyFFA(); err != nil {
					panic(err)
				}
			}
			p.Sleep(10 * time.Millisecond)
		}
		if err := ctrl.ApplyPFA(); err != nil {
			panic(err)
		}
		for p.Now() < sim.Time(cfg.T4) {
			p.Sleep(10 * time.Millisecond)
		}
		var bComm spec.CommID
		for _, ci := range d.View() {
			if ci.App == "B" {
				bComm = ci.ID
			}
		}
		for {
			if err := ctrl.ApplyTSFor(bComm, 0, []spec.AppID{"C"}); err != nil {
				_ = err // B between collectives; retry
			}
			p.Sleep(250 * time.Millisecond)
		}
	})

	// The jobs run past the horizon by design; iteration timelines are
	// reconstructed afterwards from the service's own tracing facility
	// (the same data the TS policy consumes).
	if err := env.S.RunUntil(sim.Time(cfg.RunFor)); err != nil {
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
