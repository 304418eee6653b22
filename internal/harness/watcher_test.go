package harness

import (
	"testing"
	"time"

	"mccs/internal/mccsd"
	"mccs/internal/ncclsim"
	"mccs/internal/netsim"
	"mccs/internal/policy"
	"mccs/internal/sim"
	"mccs/internal/topo"
)

// startLoopingJob launches an nGPU AllReduce loop and returns the rank-0
// bandwidth series collector.
func startLoopingJob(t *testing.T, s *sim.Scheduler, dep *mccsd.Deployment, cluster *topo.Cluster,
	gpus []topo.GPUID, bytes int64) *[]TimePoint {
	t.Helper()
	series := &[]TimePoint{}
	n := len(gpus)
	count := bytes / 4
	for rank, gpu := range gpus {
		rank, gpu := rank, gpu
		host := cluster.HostOfGPU(gpu)
		s.GoDaemon("job", func(p *sim.Proc) {
			f := dep.Service(host).Frontend("job")
			buf, err := f.MemAlloc(p, gpu, count*4, false)
			if err != nil {
				t.Error(err)
				return
			}
			comm, err := f.CommInitRank(p, "job", n, rank, gpu)
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
					*series = append(*series, TimePoint{T: stats.Done, AlgBW: stats.AlgBW()})
				}
			}
		})
	}
	return series
}

func phaseMean(series []TimePoint, from, to time.Duration) float64 {
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

// TestWatcherAutoReversesRing runs the Fig. 7 scenario with no manual
// intervention: the congestion watcher detects the external flow and
// reverses the ring by itself, exactly once.
func TestWatcherAutoReversesRing(t *testing.T) {
	cluster, err := topo.BuildSwitchRing(topo.RingConfig{
		Switches: 4, GPUsPerHost: 2, NICsPerHost: 2,
		NICBps: 50 * topo.Gbps, SwitchBps: 100 * topo.Gbps,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New()
	fabric := netsim.NewFabric(s, cluster.Net)
	dep := mccsd.NewDeployment(s, cluster, fabric, ncclsim.Config(ncclsim.MCCS))
	var gpus []topo.GPUID
	for _, h := range cluster.Hosts {
		gpus = append(gpus, h.GPUs...)
	}
	series := startLoopingJob(t, s, dep, cluster, gpus, 128<<20)

	watcher := policy.NewController(dep).NewCongestionWatcher()
	watcher.Start(nil)

	// External 75 Gbps flow on a clockwise inter-switch link at t=3s.
	s.At(sim.Time(3*time.Second), func() {
		link, err := cluster.RingLinkBetween(1, 2)
		if err != nil {
			t.Error(err)
			return
		}
		l := cluster.Net.Link(link)
		fabric.StartFlow(netsim.FlowOpts{
			Src: l.From, Dst: l.To, Bytes: 0,
			Route: []netsim.LinkID{link}, FixedRate: 75 * topo.Gbps,
			External: true,
		})
	})
	if err := s.RunUntil(sim.Time(10 * time.Second)); err != nil {
		t.Fatal(err)
	}

	healthy := phaseMean(*series, 500*time.Millisecond, 3*time.Second)
	// The watcher needs Consecutive x Interval ~ 750ms to call it
	// persistent; allow 1.5s, then expect recovery.
	recovered := phaseMean(*series, 6*time.Second, 10*time.Second)
	if healthy == 0 || recovered == 0 {
		t.Fatalf("missing samples (healthy %.3g, recovered %.3g)", healthy, recovered)
	}
	if recovered < 0.9*healthy {
		t.Errorf("watcher did not restore bandwidth: %.3g -> %.3g", healthy, recovered)
	}
	if watcher.Remediations != 1 {
		t.Errorf("remediations = %d, want exactly 1 (no flapping)", watcher.Remediations)
	}
	// The reversal really happened (generation advanced).
	view := dep.View()
	comm, _ := dep.Comm(view[0].ID)
	if comm.Runners[0].Generation() != 1 {
		t.Errorf("generation = %d, want 1", comm.Runners[0].Generation())
	}
}

// TestWatcherReroutesOnClos: in a spine-leaf fabric the watcher prefers an
// immediate route re-pin over a ring reversal — path diversity exists.
func TestWatcherReroutesOnClos(t *testing.T) {
	env, err := NewEnv(EnvOptions{System: ncclsim.MCCS})
	if err != nil {
		t.Fatal(err)
	}
	gpus, err := SingleAppGPUs(env.Cluster, 4)
	if err != nil {
		t.Fatal(err)
	}
	series := startLoopingJob(t, env.S, env.Deployment, env.Cluster, gpus, 32<<20)

	watcher := policy.NewController(env.Deployment).NewCongestionWatcher()
	watcher.Start(nil)

	// External flow saturating leaf0->spine0 (the pinned path of the
	// job's channel 0) at t=2s.
	env.S.At(sim.Time(2*time.Second), func() {
		var victim netsim.LinkID = -1
		for i := 0; i < env.Cluster.Net.NumLinks(); i++ {
			if env.Cluster.Net.Link(netsim.LinkID(i)).Name == "leaf0->spine0" {
				victim = netsim.LinkID(i)
			}
		}
		l := env.Cluster.Net.Link(victim)
		env.Fabric.StartFlow(netsim.FlowOpts{
			Src: l.From, Dst: l.To, Bytes: 0,
			Route: []netsim.LinkID{victim}, FixedRate: 40 * topo.Gbps,
			External: true,
		})
	})
	if err := env.S.RunUntil(sim.Time(8 * time.Second)); err != nil {
		t.Fatal(err)
	}

	healthy := phaseMean(*series, 200*time.Millisecond, 2*time.Second)
	recovered := phaseMean(*series, 5*time.Second, 8*time.Second)
	if recovered < 0.95*healthy {
		t.Errorf("reroute did not restore bandwidth: %.3g -> %.3g", healthy, recovered)
	}
	// Route re-pin, not a reconfiguration: generation stays 0.
	view := env.Deployment.View()
	comm, _ := env.Deployment.Comm(view[0].ID)
	if comm.Runners[0].Generation() != 0 {
		t.Errorf("generation = %d, want 0 (reroute should not reconfigure)", comm.Runners[0].Generation())
	}
	if watcher.Remediations != 1 {
		t.Errorf("remediations = %d, want 1", watcher.Remediations)
	}
}

// floodRingHop saturates both directions of the inter-switch hop between
// ring switches a and b with strict-priority external flows lasting dur.
// Congesting both directions keeps the job's ring exposed whichever way
// it currently runs, so a later episode on the same hop must re-trigger
// the watcher even after an earlier reversal moved the ring off one
// direction.
func floodRingHop(t *testing.T, s *sim.Scheduler, cluster *topo.Cluster, fabric *netsim.Fabric,
	a, b topo.RackID, at, dur time.Duration) {
	t.Helper()
	const rate = 75 * topo.Gbps
	s.At(sim.Time(at), func() {
		for _, pair := range [][2]topo.RackID{{a, b}, {b, a}} {
			link, err := cluster.RingLinkBetween(pair[0], pair[1])
			if err != nil {
				t.Error(err)
				return
			}
			l := cluster.Net.Link(link)
			fabric.StartFlow(netsim.FlowOpts{
				Src: l.From, Dst: l.To,
				Bytes: rate * dur.Seconds(),
				Route: []netsim.LinkID{link}, FixedRate: rate,
				External: true,
			})
		}
	})
}

// TestWatcherReArmsAfterEpisode is the regression test for the
// remediated-latch bug: the watcher used to mark a link remediated and
// never clear it, so a second, entirely separate congestion episode on
// the same hop was ignored forever. With hysteresis re-arm (Consecutive
// clean scans), two well-separated episodes must yield exactly two
// remediations.
func TestWatcherReArmsAfterEpisode(t *testing.T) {
	cluster, err := topo.BuildSwitchRing(topo.RingConfig{
		Switches: 4, GPUsPerHost: 2, NICsPerHost: 2,
		NICBps: 50 * topo.Gbps, SwitchBps: 100 * topo.Gbps,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New()
	fabric := netsim.NewFabric(s, cluster.Net)
	dep := mccsd.NewDeployment(s, cluster, fabric, ncclsim.Config(ncclsim.MCCS))
	var gpus []topo.GPUID
	for _, h := range cluster.Hosts {
		gpus = append(gpus, h.GPUs...)
	}
	startLoopingJob(t, s, dep, cluster, gpus, 128<<20)

	watcher := policy.NewController(dep).NewCongestionWatcher()
	watcher.Start(nil)

	// Episode 1: [2s, 4s). The watcher needs Consecutive x Interval =
	// 750ms to call it persistent, then reverses the ring. The hop stays
	// clean for 4s afterwards — far more than the Consecutive clean
	// scans the re-arm hysteresis requires.
	floodRingHop(t, s, cluster, fabric, 1, 2, 2*time.Second, 2*time.Second)
	// Episode 2: [8s, 10s) on the same hop.
	floodRingHop(t, s, cluster, fabric, 1, 2, 8*time.Second, 2*time.Second)

	if err := s.RunUntil(sim.Time(12 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if watcher.Remediations != 2 {
		t.Errorf("remediations = %d, want 2 (one per episode; the old latched watcher never re-armed and stops at 1)",
			watcher.Remediations)
	}
	view := dep.View()
	comm, _ := dep.Comm(view[0].ID)
	if g := comm.Runners[0].Generation(); g != 2 {
		t.Errorf("generation = %d, want 2 (one reversal per episode)", g)
	}
}

// TestWatcherFlappingHysteresis guards the other side of the re-arm fix:
// a flow flapping around ExternalFraction with sub-Consecutive clean
// gaps is ONE episode. A naive single-clean-scan re-arm would reverse
// the ring on every burst; the hysteresis must keep it to exactly one
// remediation.
func TestWatcherFlappingHysteresis(t *testing.T) {
	cluster, err := topo.BuildSwitchRing(topo.RingConfig{
		Switches: 4, GPUsPerHost: 2, NICsPerHost: 2,
		NICBps: 50 * topo.Gbps, SwitchBps: 100 * topo.Gbps,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New()
	fabric := netsim.NewFabric(s, cluster.Net)
	dep := mccsd.NewDeployment(s, cluster, fabric, ncclsim.Config(ncclsim.MCCS))
	var gpus []topo.GPUID
	for _, h := range cluster.Hosts {
		gpus = append(gpus, h.GPUs...)
	}
	startLoopingJob(t, s, dep, cluster, gpus, 128<<20)

	watcher := policy.NewController(dep).NewCongestionWatcher()
	watcher.Start(nil)

	// One flapping episode: 1s hot bursts (>= Consecutive hot scans at
	// 250ms intervals) separated by 300ms gaps (1-2 clean scans, below
	// the Consecutive=3 the re-arm hysteresis requires).
	floodRingHop(t, s, cluster, fabric, 1, 2, 2*time.Second, time.Second)
	floodRingHop(t, s, cluster, fabric, 1, 2, 3300*time.Millisecond, time.Second)
	floodRingHop(t, s, cluster, fabric, 1, 2, 4600*time.Millisecond, time.Second)

	if err := s.RunUntil(sim.Time(9 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if watcher.Remediations != 1 {
		t.Errorf("remediations = %d, want exactly 1 (flapping inside one episode must not re-trigger)",
			watcher.Remediations)
	}
}
