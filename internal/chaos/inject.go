package chaos

import (
	"fmt"
	"math/rand"
	"time"

	"mccs/internal/collective"
	"mccs/internal/harness"
	"mccs/internal/mccsd"
	"mccs/internal/netsim"
	"mccs/internal/policy"
	"mccs/internal/remediation"
	"mccs/internal/sim"
	"mccs/internal/spec"
	"mccs/internal/topo"
)

// installInjectors schedules every fault the scenario asks for. All
// injection is derived from the inj PRNG stream at install time (so the
// schedule of faults is fixed by the seed before the simulation starts)
// and every fault is time-bounded: capacities are restored, slowdowns
// cleared, external flows canceled, and the remediation engine stopped, so
// that the only thing that can keep the simulation from draining is a
// genuine bug. The engine a congestion scenario runs is returned (nil
// otherwise).
// Each injector also appends its fault windows to fl (nil-safe) as
// labeled ground truth for the diagnosis engine; recording consumes no
// PRNG draws, so the fault schedule is identical with or without it.
func installInjectors(env *harness.Env, sc Scenario, inj, tune *rand.Rand, gpus []topo.GPUID, fl *faultLog) (eng *remediation.Engine) {
	if sc.LinkFlaps > 0 {
		injectLinkFlaps(env, sc, inj, fl)
	}
	if sc.Stragglers > 0 {
		injectStragglers(env, sc, inj, gpus, fl)
	}
	if sc.SendDelays {
		injectSendDelays(env, inj, gpus)
		fl.add(FaultRecord{Kind: "send-delay", Start: 0, End: FaultOpenEnd, Link: -1, Rank: -1})
	}
	if sc.Reconfigs > 0 {
		injectReconfigStorm(env, sc, inj, fl)
	}
	if sc.Congestion {
		eng = injectCongestion(env, sc, inj, fl)
	}
	if sc.Autotunes > 0 {
		injectAutotune(env, sc, tune, fl)
	}
	return eng
}

// injectAutotune runs seed-scheduled strategy-autotuner passes against
// the live deployment while collectives are in flight: each pass
// searches the candidate space under whatever fabric state the other
// faults have created and installs the winner through the same Fig. 4
// reconfiguration path the storm driver stresses. The passes (times and
// search options) are drawn at install time so they are fixed by the
// seed before the simulation starts; the deployment's controller runs
// them as one plan.
func injectAutotune(env *harness.Env, sc Scenario, tune *rand.Rand, fl *faultLog) {
	ctrl, dep := env.Controller(), env.Deployment
	var id spec.CommID
	polls := 0
	plan := policy.Plan{{
		// awaitComm, as a plan's first row.
		When: policy.Every(20*time.Microsecond, func() bool {
			done := dep.NumComms() > 0 || polls > 4000
			polls++
			return done
		}, nil),
		Do: func() (*sim.Latch, error) {
			if dep.NumComms() == 0 {
				return nil, policy.ErrStop
			}
			id = dep.View()[0].ID
			return nil, nil
		},
	}}
	gap := sc.Horizon / time.Duration(sc.Autotunes+1)
	for range sc.Autotunes {
		after := gap/2 + randDuration(tune, gap)
		opts := policy.AutotuneOptions{
			Op:          collective.AllReduce,
			Bytes:       1 << (10 + tune.Intn(8)), // 1 KB .. 128 KB
			MaxChannels: 1 + tune.Intn(2),
			NoTree:      tune.Intn(2) == 0,
			NoHD:        tune.Intn(2) == 0,
		}
		var finish func()
		plan = append(plan, policy.Row{When: policy.After(after), Do: func() (l *sim.Latch, err error) {
			fl.add(FaultRecord{Kind: "autotune", Start: env.S.Now(), End: FaultOpenEnd, Link: -1, Rank: -1})
			if l, finish, err = ctrl.StartAutotune(id, opts); err != nil {
				panic(fmt.Sprintf("chaos: autotune: %v", err))
			}
			return l, nil
		}}, policy.Row{Do: func() (*sim.Latch, error) { finish(); return nil, nil }})
	}
	ctrl.Run("chaos:autotune", plan)
}

// injectLinkFlaps degrades random fabric links to a fraction of their
// capacity (including full blackouts) for a bounded window. Each link
// tracks a fault-nesting count: the first flap to touch it snapshots
// the exact pre-fault state (netsim.LinkState) and the last active flap
// to expire restores that snapshot — never an install-time or
// recomputed value — so back-to-back and overlapping injections on the
// same link compose, and a restore cannot clobber capacity changes made
// between episodes by other actors.
func injectLinkFlaps(env *harness.Env, sc Scenario, inj *rand.Rand, fl *faultLog) {
	net := env.Cluster.Net
	orig := make([]float64, net.NumLinks())
	for i := range orig {
		orig[i] = net.Link(netsim.LinkID(i)).Capacity
	}
	type faultNest struct {
		active int
		pre    netsim.LinkState
	}
	nests := make(map[netsim.LinkID]*faultNest)
	fracs := []float64{0, 0.05, 0.3}
	for i := 0; i < sc.LinkFlaps; i++ {
		l := netsim.LinkID(inj.Intn(net.NumLinks()))
		at := randDuration(inj, sc.Horizon*7/10)
		dur := sc.Horizon/40 + randDuration(inj, sc.Horizon/8)
		frac := fracs[inj.Intn(len(fracs))]
		fl.add(FaultRecord{Kind: "link-flap", Start: sim.Time(at), End: sim.Time(at + dur),
			Link: int32(l), Rank: -1, Frac: frac})
		env.S.At(sim.Time(at), func() {
			n := nests[l]
			if n == nil {
				n = &faultNest{}
				nests[l] = n
			}
			if n.active == 0 {
				n.pre = env.Fabric.SnapshotLink(l)
			}
			n.active++
			env.Fabric.SetLinkCapacity(l, orig[l]*frac)
		})
		env.S.At(sim.Time(at+dur), func() {
			n := nests[l]
			n.active--
			if n.active == 0 {
				env.Fabric.RestoreLink(n.pre)
			}
		})
	}
}

// injectStragglers slows random participating GPUs for a bounded window,
// modeling thermal throttling or a noisy neighbor on the host.
func injectStragglers(env *harness.Env, sc Scenario, inj *rand.Rand, gpus []topo.GPUID, fl *faultLog) {
	for i := 0; i < sc.Stragglers; i++ {
		ri := inj.Intn(len(gpus)) // index into the rank-ordered GPU list == rank
		dev := env.Deployment.Device(gpus[ri])
		at := randDuration(inj, sc.Horizon*7/10)
		dur := sc.Horizon/40 + randDuration(inj, sc.Horizon/8)
		factor := 2 + inj.Float64()*14
		fl.add(FaultRecord{Kind: "straggler", Start: sim.Time(at), End: sim.Time(at + dur),
			Link: -1, Rank: int32(ri), Factor: factor})
		env.S.At(sim.Time(at), func() { dev.SetSlowdown(factor) })
		env.S.At(sim.Time(at+dur), func() { dev.SetSlowdown(1) })
	}
}

// injectSendDelays installs a transport send perturbation on every
// participating host: a random quarter of sends are held back a few
// microseconds, shaking up message arrival order at the receivers. The
// perturbation PRNG is consumed in scheduler order, so it is as
// deterministic as the schedule itself.
func injectSendDelays(env *harness.Env, inj *rand.Rand, gpus []topo.GPUID) {
	prng := rand.New(rand.NewSource(inj.Int63()))
	seen := make(map[topo.HostID]bool)
	for _, g := range gpus {
		h := env.Cluster.HostOfGPU(g)
		if seen[h] {
			continue
		}
		seen[h] = true
		env.Deployment.Engine(h).SetSendPerturb(func(bytes int64) time.Duration {
			if prng.Intn(4) == 0 {
				return time.Duration(1+prng.Intn(30)) * time.Microsecond
			}
			return 0
		})
	}
}

// injectReconfigStorm drives repeated strategy switches through the
// management plane while collectives are in flight: random ring
// permutations, random route pins, occasional tree thresholds, and
// skewed per-rank delivery — the exact storm the Fig. 4 sequence-number
// protocol exists to survive.
func injectReconfigStorm(env *harness.Env, sc Scenario, inj *rand.Rand, fl *faultLog) {
	type reconfig struct {
		strat  spec.Strategy
		delays []time.Duration
		after  time.Duration
	}
	plan := make([]reconfig, sc.Reconfigs)
	gap := sc.Horizon / time.Duration(sc.Reconfigs+1)
	for i := range plan {
		plan[i] = reconfig{
			strat:  randomStrategy(inj, sc.Ranks),
			delays: randomDelays(inj, sc.Ranks),
			after:  randDuration(inj, 2*gap),
		}
	}
	env.S.Go("chaos:storm", func(p *sim.Proc) {
		dep := env.Deployment
		id, ok := awaitComm(p, dep)
		if !ok {
			return
		}
		for _, rc := range plan {
			p.Sleep(rc.after)
			fl.add(FaultRecord{Kind: "reconfig", Start: env.S.Now(), End: FaultOpenEnd, Link: -1, Rank: -1})
			if _, err := dep.Reconfigure(id, rc.strat, rc.delays); err != nil {
				panic(fmt.Sprintf("chaos: reconfigure: %v", err))
			}
		}
	})
}

// awaitComm waits for the run's first communicator to come up and returns
// its ID. It polls every 20 µs and gives up (ok false) after 4 001 sleeps,
// so a rendezvous wedged by some other fault cannot livelock the run. The
// storm driver starts this way, the autotune plan with the same poll.
func awaitComm(p *sim.Proc, dep *mccsd.Deployment) (id spec.CommID, ok bool) {
	for i := 0; dep.NumComms() == 0; i++ {
		if i > 4000 {
			return 0, false
		}
		p.Sleep(20 * time.Microsecond)
	}
	return dep.View()[0].ID, true
}

// randomStrategy builds a valid but adversarial strategy: a random ring
// permutation (sometimes two channels, the second reversed), random
// route pins or ECMP, and occasionally tree collectives for small ops.
func randomStrategy(inj *rand.Rand, n int) spec.Strategy {
	order := inj.Perm(n)
	st := spec.Strategy{Channels: []spec.ChannelSpec{{Order: order, Route: randomRoute(inj)}}}
	if inj.Intn(3) == 0 {
		rev := make([]int, n)
		for i, r := range order {
			rev[n-1-i] = r
		}
		st.Channels = append(st.Channels, spec.ChannelSpec{Order: rev, Route: randomRoute(inj)})
	}
	if inj.Intn(4) == 0 {
		st.TreeThreshold = 2048
	}
	return st
}

// randomRoute picks an equal-cost path index or ECMP hashing.
func randomRoute(inj *rand.Rand) int {
	if inj.Intn(3) == 0 {
		return spec.RouteECMP
	}
	return inj.Intn(4)
}

// randomDelays staggers per-rank reconfig delivery, modeling the
// arbitrary network/processing skew of Fig. 4.
func randomDelays(inj *rand.Rand, n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(inj.Intn(250)) * time.Microsecond
	}
	return out
}

// injectCongestion starts an external strict-priority flow on a random
// fabric-core link for a bounded window and runs the remediation engine
// against the deployment (link health only, one action per episode), so
// recovery moves (route re-pins, ring reversals) happen concurrently with
// the tenant workload and any reconfiguration storm. It returns the
// engine, whose actions the run adds to the fault log when it ends.
func injectCongestion(env *harness.Env, sc Scenario, inj *rand.Rand, fl *faultLog) *remediation.Engine {
	net := env.Cluster.Net
	var core []netsim.LinkID
	sw := make(map[netsim.NodeID]bool)
	for _, id := range env.Cluster.LeafNodes {
		sw[id] = true
	}
	for _, id := range env.Cluster.SpineNodes {
		sw[id] = true
	}
	for i := 0; i < net.NumLinks(); i++ {
		l := net.Link(netsim.LinkID(i))
		if sw[l.From] && sw[l.To] {
			core = append(core, l.ID)
		}
	}
	if len(core) == 0 {
		return nil
	}
	l := core[inj.Intn(len(core))]
	link := net.Link(l)
	at := randDuration(inj, sc.Horizon/4)
	dur := sc.Horizon / 2
	fl.add(FaultRecord{Kind: "congestion", Start: sim.Time(at), End: sim.Time(at + dur),
		Link: int32(l), Rank: -1})

	var bg *netsim.Flow
	env.S.At(sim.Time(at), func() {
		bg = env.Fabric.StartFlow(netsim.FlowOpts{
			Src: link.From, Dst: link.To, Route: []netsim.LinkID{l},
			FixedRate: 0.75 * link.Capacity, External: true,
		})
	})
	env.S.At(sim.Time(at+dur), func() {
		if bg != nil {
			env.Fabric.CancelFlow(bg)
		}
	})

	cfg := remediation.DefaultConfig()
	cfg.MaxActions = 1
	eng := remediation.Attach(env.S, env.Deployment, env.Controller(), nil, cfg)
	stop := &sim.Event{}
	eng.Start(stop)
	env.S.At(sim.Time(sc.Horizon), func() { stop.Signal(env.S) })
	return eng
}

// randDuration returns a uniform duration in [0, max).
func randDuration(inj *rand.Rand, max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	return time.Duration(inj.Int63n(int64(max)))
}
