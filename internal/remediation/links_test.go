package remediation

import (
	"testing"
	"time"

	"mccs/internal/harness"
	"mccs/internal/ncclsim"
	"mccs/internal/netsim"
	"mccs/internal/sim"
	"mccs/internal/topo"
)

// These tests drive the link-health rule against unmanaged traffic: an
// external flow leaves a link less capacity for managed traffic, which
// the engine treats like a capacity dip. They run the engine the way the
// chaos congestion scenarios do — link health only (no diagnosis engine),
// one action per episode — on a seconds-long timeline, so the tick is
// stretched to a quarter second.

// linkHealthConfig is DefaultConfig with one action per episode and a
// 250 ms tick: a link is quarantined after two degraded ticks and
// re-admitted after three clean ones.
func linkHealthConfig() Config {
	cfg := DefaultConfig()
	cfg.MaxActions = 1
	cfg.Interval = 250 * time.Millisecond
	return cfg
}

// newSwitchRingEnv builds the Fig. 7 switch ring: four switches, no path
// diversity, so moving off a loaded hop means reversing the ring.
func newSwitchRingEnv(t *testing.T) *harness.Env {
	t.Helper()
	cluster, err := topo.BuildSwitchRing(topo.RingConfig{
		Switches: 4, GPUsPerHost: 2, NICsPerHost: 2,
		NICBps: 50 * topo.Gbps, SwitchBps: 100 * topo.Gbps,
	})
	if err != nil {
		t.Fatal(err)
	}
	env, err := harness.NewEnv(harness.EnvOptions{System: ncclsim.MCCS, Cluster: cluster})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(env.S.Shutdown)
	return env
}

func allGPUs(c *topo.Cluster) []topo.GPUID {
	var gpus []topo.GPUID
	for _, h := range c.Hosts {
		gpus = append(gpus, h.GPUs...)
	}
	return gpus
}

// startLoopingJob launches an AllReduce loop over gpus and returns the
// rank-0 bandwidth series.
func startLoopingJob(t *testing.T, env *harness.Env, gpus []topo.GPUID, bytes int64) *[]harness.TimePoint {
	t.Helper()
	series := &[]harness.TimePoint{}
	count := bytes / 4
	for rank, gpu := range gpus {
		rank, gpu := rank, gpu
		env.S.GoDaemon("job", func(p *sim.Proc) {
			f := env.Deployment.Service(env.Cluster.HostOfGPU(gpu)).Frontend("job")
			buf, err := f.MemAlloc(p, gpu, count*4, false)
			if err != nil {
				t.Error(err)
				return
			}
			comm, err := f.CommInitRank(p, "job", len(gpus), rank, gpu)
			if err != nil {
				t.Error(err)
				return
			}
			for {
				h, err := comm.AllReduce(p, nil, buf, count, nil)
				if err != nil {
					t.Error(err)
					return
				}
				stats := h.Wait(p)
				if rank == 0 {
					*series = append(*series, harness.TimePoint{T: stats.Done, AlgBW: stats.AlgBW()})
				}
			}
		})
	}
	return series
}

func phaseMean(series []harness.TimePoint, from, to time.Duration) float64 {
	var sum float64
	n := 0
	for _, pt := range series {
		if pt.T >= sim.Time(from) && pt.T < sim.Time(to) {
			sum += pt.AlgBW
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// flood starts a strict-priority external flow on link l at frac of its
// capacity, at sim time at, for dur.
func flood(env *harness.Env, l netsim.LinkID, frac float64, at, dur time.Duration) {
	link := env.Cluster.Net.Link(l)
	rate := frac * link.Capacity
	env.S.At(sim.Time(at), func() {
		env.Fabric.StartFlow(netsim.FlowOpts{
			Src: link.From, Dst: link.To, Bytes: rate * dur.Seconds(),
			Route: []netsim.LinkID{l}, FixedRate: rate, External: true,
		})
	})
}

// rank0Uplink returns the NIC uplink of the communicator's rank 0 on the
// Clos testbed: every ring direction crosses it and no equal-cost path
// avoids it, so the engine's move (a reversal) leaves the link affected
// and only the episode bookkeeping decides whether it acts again.
func rank0Uplink(t *testing.T, env *harness.Env, gpus []topo.GPUID) netsim.LinkID {
	t.Helper()
	net := env.Cluster.Net
	nic := env.Cluster.NICNode(env.Cluster.NICOfGPU(gpus[0]))
	for i := 0; i < net.NumLinks(); i++ {
		if net.Link(netsim.LinkID(i)).From == nic {
			return netsim.LinkID(i)
		}
	}
	t.Fatal("rank 0's NIC has no uplink")
	return -1
}

// newClosEnv builds the Clos testbed and picks four GPUs for a job.
func newClosEnv(t *testing.T) (*harness.Env, []topo.GPUID) {
	t.Helper()
	env, err := harness.NewEnv(harness.EnvOptions{System: ncclsim.MCCS})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(env.S.Shutdown)
	gpus, err := harness.SingleAppGPUs(env.Cluster, 4)
	if err != nil {
		t.Fatal(err)
	}
	return env, gpus
}

// initIdleComm creates a communicator over gpus that issues nothing: the
// engine acts on its routes alone. It returns once every rank is in.
func initIdleComm(t *testing.T, env *harness.Env, gpus []topo.GPUID) {
	t.Helper()
	for rank, gpu := range gpus {
		rank, gpu := rank, gpu
		env.S.Go("rank", func(p *sim.Proc) {
			f := env.Deployment.Service(env.Cluster.HostOfGPU(gpu)).Frontend("app")
			if _, err := f.CommInitRank(p, "job", len(gpus), rank, gpu); err != nil {
				t.Error(err)
			}
		})
	}
	if err := env.S.Run(); err != nil {
		t.Fatal(err)
	}
}

// moves counts the engine's recovery moves (re-pins and reversals).
func moves(e *Engine) int {
	n := 0
	for _, a := range e.events {
		if a.Action == "repin" || a.Action == "reverse" {
			n++
		}
	}
	return n
}

func generation(t *testing.T, env *harness.Env) int {
	t.Helper()
	comm, ok := env.Deployment.Comm(env.Deployment.View()[0].ID)
	if !ok {
		t.Fatal("communicator gone")
	}
	return comm.Runners[0].Generation()
}

// TestExternalLoadQuarantinesLink: a link whose capacity never changes is
// still quarantined once persistent external traffic leaves managed
// traffic less than nominal minus tolerance.
func TestExternalLoadQuarantinesLink(t *testing.T) {
	env := newSwitchRingEnv(t)
	e := Attach(env.S, env.Deployment, nil, linkHealthConfig())
	link, err := env.Cluster.RingLinkBetween(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	capacity := env.Cluster.Net.Link(link).Capacity
	tick := func() { e.scanLinks(env.S.Now()) }
	tick()
	if e.links[link].phase != phaseHealthy {
		t.Fatalf("unloaded link is %v", e.links[link].phase)
	}
	l := env.Cluster.Net.Link(link)
	env.Fabric.StartFlow(netsim.FlowOpts{
		Src: l.From, Dst: l.To, Route: []netsim.LinkID{link},
		FixedRate: 0.5 * capacity, External: true,
	})
	tick()
	tick()
	if got := e.links[link].phase; got != phaseQuarantined {
		t.Errorf("link under 50%% external load is %v, want quarantined", got)
	}
	if got := env.Cluster.Net.Link(link).Capacity; got != capacity {
		t.Errorf("capacity moved %v -> %v: the test must load the link, not shrink it", capacity, got)
	}
	for i := range e.links {
		if i != int(link) && e.links[i].phase != phaseHealthy {
			t.Errorf("unloaded link %s is %v", e.linkNames[i], e.links[i].phase)
		}
	}
}

// TestRemediationReversesRingOnce runs the Fig. 7 scenario with no manual
// intervention: the engine sees the external flow on the clockwise hop
// and reverses the ring by itself, exactly once.
func TestRemediationReversesRingOnce(t *testing.T) {
	env := newSwitchRingEnv(t)
	series := startLoopingJob(t, env, allGPUs(env.Cluster), 128<<20)
	e := Attach(env.S, env.Deployment, nil, linkHealthConfig())
	e.Start(nil)

	// External 75 Gbps flow on a clockwise inter-switch link at t=2s.
	env.S.At(sim.Time(2*time.Second), func() {
		link, err := env.Cluster.RingLinkBetween(1, 2)
		if err != nil {
			t.Error(err)
			return
		}
		l := env.Cluster.Net.Link(link)
		env.Fabric.StartFlow(netsim.FlowOpts{
			Src: l.From, Dst: l.To, Route: []netsim.LinkID{link},
			FixedRate: 75 * topo.Gbps, External: true,
		})
	})
	if err := env.S.RunUntil(sim.Time(6 * time.Second)); err != nil {
		t.Fatal(err)
	}

	healthy := phaseMean(*series, 500*time.Millisecond, 2*time.Second)
	// Quarantine takes two 250 ms ticks; allow 2 s, then expect recovery.
	recovered := phaseMean(*series, 4*time.Second, 6*time.Second)
	if healthy == 0 || recovered == 0 {
		t.Fatalf("missing samples (healthy %.3g, recovered %.3g)", healthy, recovered)
	}
	if recovered < 0.9*healthy {
		t.Errorf("bandwidth not restored: %.3g -> %.3g", healthy, recovered)
	}
	if n := moves(e); n != 1 {
		t.Errorf("moves = %d, want exactly 1 (no flapping)", n)
	}
	if g := generation(t, env); g != 1 {
		t.Errorf("generation = %d, want 1 (one reversal)", g)
	}
}

// TestRemediationRepinsOnClos: in a spine-leaf fabric the engine prefers
// an immediate route re-pin over a ring reversal — path diversity exists.
func TestRemediationRepinsOnClos(t *testing.T) {
	env, gpus := newClosEnv(t)
	series := startLoopingJob(t, env, gpus, 32<<20)
	e := Attach(env.S, env.Deployment, nil, linkHealthConfig())
	e.Start(nil)

	// External flow loading leaf0->spine0 (the pinned path of the job's
	// channel 0) at t=2s.
	env.S.At(sim.Time(2*time.Second), func() {
		var victim netsim.LinkID = -1
		for i := 0; i < env.Cluster.Net.NumLinks(); i++ {
			if env.Cluster.Net.LinkName(netsim.LinkID(i)) == "leaf0->spine0" {
				victim = netsim.LinkID(i)
			}
		}
		l := env.Cluster.Net.Link(victim)
		env.Fabric.StartFlow(netsim.FlowOpts{
			Src: l.From, Dst: l.To, Route: []netsim.LinkID{victim},
			FixedRate: 40 * topo.Gbps, External: true,
		})
	})
	if err := env.S.RunUntil(sim.Time(8 * time.Second)); err != nil {
		t.Fatal(err)
	}

	healthy := phaseMean(*series, 200*time.Millisecond, 2*time.Second)
	recovered := phaseMean(*series, 5*time.Second, 8*time.Second)
	if recovered < 0.95*healthy {
		t.Errorf("re-pin did not restore bandwidth: %.3g -> %.3g", healthy, recovered)
	}
	// Route re-pin, not a reconfiguration: generation stays 0.
	if g := generation(t, env); g != 0 {
		t.Errorf("generation = %d, want 0 (a re-pin does not reconfigure)", g)
	}
	if n := moves(e); n != 1 {
		t.Errorf("moves = %d, want 1", n)
	}
}

// TestRemediationActsOncePerEpisode: two well-separated episodes on the
// same link are two episodes — the link is re-admitted in between — so
// they give two actions (two reversals) although the link stays routed.
// The communicator is idle: the engine acts on routes, not on traffic.
func TestRemediationActsOncePerEpisode(t *testing.T) {
	env, gpus := newClosEnv(t)
	initIdleComm(t, env, gpus)
	uplink := rank0Uplink(t, env, gpus)
	e := Attach(env.S, env.Deployment, nil, linkHealthConfig())
	e.Start(nil)

	// Episode 1: [2s, 4s). The link then stays clean for 4 s, far more
	// than the three clean ticks re-admission needs.
	flood(env, uplink, 0.5, 2*time.Second, 2*time.Second)
	// Episode 2: [8s, 10s) on the same link.
	flood(env, uplink, 0.5, 8*time.Second, 2*time.Second)
	if err := env.S.RunUntil(sim.Time(12 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if n := moves(e); n != 2 {
		t.Errorf("moves = %d, want 2 (one per episode)", n)
	}
	if g := generation(t, env); g != 2 {
		t.Errorf("generation = %d, want 2 (one reversal per episode)", g)
	}
}

// TestRemediationFlappingIsOneEpisode: bursts separated by gaps shorter
// than ProbationAfter clean ticks relapse into the same episode instead
// of opening new ones, so the engine acts once, not on every burst.
func TestRemediationFlappingIsOneEpisode(t *testing.T) {
	env, gpus := newClosEnv(t)
	initIdleComm(t, env, gpus)
	uplink := rank0Uplink(t, env, gpus)
	e := Attach(env.S, env.Deployment, nil, linkHealthConfig())
	e.Start(nil)

	// 1 s bursts (four ticks) separated by 300 ms gaps (one or two clean
	// ticks, below the three that re-admit the link).
	flood(env, uplink, 0.5, 2*time.Second, time.Second)
	flood(env, uplink, 0.5, 3300*time.Millisecond, time.Second)
	flood(env, uplink, 0.5, 4600*time.Millisecond, time.Second)
	if err := env.S.RunUntil(sim.Time(9 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if n := moves(e); n != 1 {
		t.Errorf("moves = %d, want exactly 1 (flapping inside one episode must not re-trigger)", n)
	}
	if g := generation(t, env); g != 1 {
		t.Errorf("generation = %d, want 1", g)
	}
}

// TestQuarantinedTickAllocatesNothing pins that a tick with a quarantined
// link and no rung due — waiting out its backoff, or out of actions — is
// allocation-free: the affected check reads the live routes, and the
// move set is built only on a tick that acts.
func TestQuarantinedTickAllocatesNothing(t *testing.T) {
	for _, maxActions := range []int{1, 3} {
		env, gpus := newClosEnv(t)
		initIdleComm(t, env, gpus)
		uplink := rank0Uplink(t, env, gpus)
		if !env.Deployment.RoutesOver(uplink) {
			t.Fatalf("rank 0's uplink %d carries no route", uplink)
		}

		cfg := DefaultConfig()
		cfg.MaxActions = maxActions
		e := Attach(env.S, env.Deployment, nil, cfg)
		l := env.Cluster.Net.Link(uplink)
		env.Fabric.StartFlow(netsim.FlowOpts{
			Src: l.From, Dst: l.To, Route: []netsim.LinkID{uplink},
			FixedRate: 0.5 * l.Capacity, External: true,
		})
		e.tick(nil) // suspect
		e.tick(nil) // quarantined; rung 0 reverses the ring
		if e.links[uplink].phase != phaseQuarantined || moves(e) != 1 {
			t.Fatalf("MaxActions %d: link %v after %d moves, want quarantined after 1",
				maxActions, e.links[uplink].phase, moves(e))
		}
		if !env.Deployment.RoutesOver(uplink) {
			t.Fatalf("MaxActions %d: the reversal moved the ring off rank 0's uplink", maxActions)
		}
		if got := testing.AllocsPerRun(100, func() { e.tick(nil) }); got != 0 {
			t.Errorf("MaxActions %d: a quarantined tick with no rung due allocates %.1f objects", maxActions, got)
		}
		if moves(e) != 1 {
			t.Errorf("MaxActions %d: %d moves, want the first one only", maxActions, moves(e))
		}
	}
}
