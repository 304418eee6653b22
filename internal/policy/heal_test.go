package policy_test

import (
	"reflect"
	"testing"
	"time"

	"mccs/internal/harness"
	"mccs/internal/mccsd"
	"mccs/internal/ncclsim"
	"mccs/internal/netsim"
	"mccs/internal/policy"
	"mccs/internal/sim"
	"mccs/internal/spec"
	"mccs/internal/topo"
)

// A remediation move must not change what the autotuner chose: reversing
// or degrading a communicator that runs halving-doubling with a tree
// threshold leaves both in place. (Both moves used to rebuild the
// strategy from its channel orders alone and silently fell back to ring.)
func TestHealMovesKeepAlgorithmAndTreeThreshold(t *testing.T) {
	tuned := spec.Strategy{
		Algorithm:     spec.AlgoHD,
		TreeThreshold: 64 << 10,
		Channels: []spec.ChannelSpec{
			{Order: []int{0, 1, 2, 3, 4, 5, 6, 7}, Route: 0},
			{Order: []int{1, 0, 3, 2, 5, 4, 7, 6}, Route: 1},
		},
		Routes: map[spec.ConnKey]int{{Channel: 0, FromRank: 1, ToRank: 2}: 1},
	}
	env, err := harness.NewEnv(harness.EnvOptions{System: ncclsim.MCCS, Mutate: func(c *mccsd.Config) {
		c.Strategy = func(*topo.Cluster, *spec.CommInfo) spec.Strategy { return tuned.Clone() }
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer env.S.Shutdown()
	gpus, err := harness.SingleAppGPUs(env.Cluster, 8)
	if err != nil {
		t.Fatal(err)
	}
	inited := sim.NewLatch(len(gpus))
	for rank, gpu := range gpus {
		rank, gpu := rank, gpu
		env.S.Go("rank", func(p *sim.Proc) {
			f := env.Deployment.Service(env.Cluster.HostOfGPU(gpu)).Frontend("app")
			if _, err := f.CommInitRank(p, "job", len(gpus), rank, gpu); err != nil {
				t.Error(err)
			}
			inited.Done(env.S)
		})
	}

	// Every link is bad, so no clean equal-cost path exists and the only
	// move left is the reversal.
	bad := make(map[netsim.LinkID]bool)
	for l := 0; l < env.Cluster.Net.NumLinks(); l++ {
		bad[netsim.LinkID(l)] = true
	}
	installed := func() spec.Strategy {
		comm, ok := env.Deployment.Comm(env.Deployment.View()[0].ID)
		if !ok {
			t.Fatal("communicator gone")
		}
		return comm.Strategy()
	}
	var reversed, degraded spec.Strategy
	env.S.Go("healer", func(p *sim.Proc) {
		inited.Wait(p)
		ctrl := policy.NewController(env.Deployment)
		ci := env.Deployment.View()[0]
		if got := ctrl.RepinOrReverse(ci, ctrl.AffectedConns(ci, bad), bad); got != policy.RemedyReverse {
			t.Errorf("remedy = %v, want reverse", got)
		}
		p.Sleep(10 * time.Millisecond) // let the reconfiguration barrier switch every rank
		reversed = installed()
		if err := ctrl.Degrade(env.Deployment.View()[0]); err != nil {
			t.Error(err)
		}
		p.Sleep(10 * time.Millisecond)
		degraded = installed()
	})
	if err := env.S.Run(); err != nil {
		t.Fatal(err)
	}

	if want := tuned.Reversed(); !reflect.DeepEqual(reversed, want) {
		t.Errorf("after reversal the communicator runs %+v, want %+v", reversed, want)
	}
	want := spec.Strategy{
		Algorithm:     spec.AlgoHD,
		TreeThreshold: 64 << 10,
		Channels:      []spec.ChannelSpec{{Order: []int{7, 6, 5, 4, 3, 2, 1, 0}, Route: spec.RouteECMP}},
	}
	if !reflect.DeepEqual(degraded, want) {
		t.Errorf("after degrade the communicator runs %+v, want %+v", degraded, want)
	}
}
