package harness

import (
	"testing"
	"time"

	"mccs/internal/mccsd"
	"mccs/internal/ncclsim"
	"mccs/internal/netsim"
	"mccs/internal/sim"
	"mccs/internal/spec"
	"mccs/internal/topo"
)

// TestLinkDegradationReroute exercises the failure-adaptation path the
// paper's architecture enables: a spine link degrades to 10% capacity, the
// provider observes it and re-pins the affected connections to the healthy
// spine with an immediate route update (no barrier needed), and the
// tenant's bandwidth recovers — all without the tenant noticing anything
// but the dip.
func TestLinkDegradationReroute(t *testing.T) {
	env, err := NewEnv(EnvOptions{System: ncclsim.MCCS})
	if err != nil {
		t.Fatal(err)
	}
	d := env.Deployment
	gpus, err := SingleAppGPUs(env.Cluster, 4)
	if err != nil {
		t.Fatal(err)
	}
	n := len(gpus)
	const count = int64(32 << 20 / 4)

	// Find the leaf0 -> spine0 link to degrade.
	var victim netsim.LinkID = -1
	for i := 0; i < env.Cluster.Net.NumLinks(); i++ {
		if env.Cluster.Net.LinkName(netsim.LinkID(i)) == "leaf0->spine0" {
			victim = netsim.LinkID(i)
		}
	}
	if victim < 0 {
		t.Fatal("leaf0->spine0 link not found")
	}

	type sample struct {
		t  sim.Time
		bw float64
	}
	var series []sample
	for rank, gpu := range gpus {
		rank, gpu := rank, gpu
		host := env.Cluster.HostOfGPU(gpu)
		env.S.GoDaemon("rank", func(p *sim.Proc) {
			f := d.Service(host).Frontend("app")
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
					series = append(series, sample{t: stats.Done, bw: stats.AlgBW()})
				}
			}
		})
	}

	// t=200ms: the spine link degrades to 10%.
	env.S.At(sim.Time(200*time.Millisecond), func() {
		env.Fabric.SetLinkCapacity(victim, 5*topo.Gbps)
	})
	// t=400ms: the controller re-pins every connection of every
	// communicator away from spine 0.
	env.S.At(sim.Time(400*time.Millisecond), func() {
		for _, ci := range d.View() {
			routes := make(map[spec.ConnKey]int)
			for chIdx, ch := range ci.Strategy.Channels {
				nr := len(ch.Order)
				for pos := 0; pos < nr; pos++ {
					from, to := ch.Order[pos], ch.Order[(pos+1)%nr]
					if ci.Ranks[from].Host == ci.Ranks[to].Host {
						continue
					}
					routes[spec.ConnKey{Channel: chIdx, FromRank: from, ToRank: to}] = 1 // spine 1
				}
			}
			if err := d.UpdateRoutes(ci.ID, routes); err != nil {
				t.Error(err)
			}
		}
	})

	if err := env.S.RunUntil(sim.Time(600 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}

	mean := func(from, to time.Duration) float64 {
		var sum float64
		nS := 0
		for _, s := range series {
			if s.t >= sim.Time(from) && s.t < sim.Time(to) {
				sum += s.bw
				nS++
			}
		}
		if nS == 0 {
			return 0
		}
		return sum / float64(nS)
	}
	healthy := mean(50*time.Millisecond, 200*time.Millisecond)
	degraded := mean(250*time.Millisecond, 400*time.Millisecond)
	rerouted := mean(450*time.Millisecond, 600*time.Millisecond)
	if healthy == 0 || degraded == 0 || rerouted == 0 {
		t.Fatalf("missing samples: %g %g %g (n=%d)", healthy, degraded, rerouted, len(series))
	}
	// This 4-GPU job's single ring uses one cross-rack path; with route
	// pinning to spine 0 (channel 0 -> path 0), degrading that spine
	// must hurt noticeably, and rerouting must restore full bandwidth.
	if degraded > 0.8*healthy {
		t.Errorf("degradation invisible: healthy %.3g vs degraded %.3g", healthy, degraded)
	}
	if rerouted < 0.95*healthy {
		t.Errorf("reroute did not recover: healthy %.3g vs rerouted %.3g", healthy, rerouted)
	}
}

var _ = mccsd.DefaultConfig
