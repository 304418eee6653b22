package policy_test

import (
	"reflect"
	"slices"
	"testing"

	"mccs/internal/harness"
	"mccs/internal/mccsd"
	"mccs/internal/ncclsim"
	"mccs/internal/netsim"
	"mccs/internal/policy"
	"mccs/internal/sim"
	"mccs/internal/spec"
	"mccs/internal/topo"
)

// initIdleComm brings up one communicator over gpus that issues nothing
// and returns its management-plane description once every rank is in.
func initIdleComm(t *testing.T, env *harness.Env, gpus []topo.GPUID) spec.CommInfo {
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
	view := env.Deployment.View()
	if len(view) != 1 {
		t.Fatalf("%d communicators, want 1", len(view))
	}
	return view[0]
}

// installed returns the strategy the communicator runs now.
func installed(t *testing.T, env *harness.Env, id spec.CommID) spec.Strategy {
	t.Helper()
	comm, ok := env.Deployment.Comm(id)
	if !ok {
		t.Fatal("communicator gone")
	}
	return comm.Strategy()
}

// reverseAndWait runs policy.Reverse from a process and waits until every
// rank has switched.
func reverseAndWait(t *testing.T, env *harness.Env, id spec.CommID) {
	t.Helper()
	env.S.Go("reverser", func(p *sim.Proc) {
		latch, err := policy.Reverse(env.Deployment, id)
		if err != nil {
			t.Error(err)
			return
		}
		latch.Wait(p)
	})
	if err := env.S.Run(); err != nil {
		t.Fatal(err)
	}
}

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
	ci := initIdleComm(t, env, gpus)

	reverseAndWait(t, env, ci.ID)
	if got, want := installed(t, env, ci.ID), tuned.Reversed(); !reflect.DeepEqual(got, want) {
		t.Errorf("after reversal the communicator runs %+v, want %+v", got, want)
	}

	if err := policy.Degrade(env.Deployment, ci); err != nil {
		t.Fatal(err)
	}
	if err := env.S.Run(); err != nil { // let the reconfiguration barrier switch every rank
		t.Fatal(err)
	}
	want := spec.Strategy{
		Algorithm:     spec.AlgoHD,
		TreeThreshold: 64 << 10,
		Channels:      []spec.ChannelSpec{{Order: []int{7, 6, 5, 4, 3, 2, 1, 0}, Route: spec.RouteECMP}},
	}
	if got := installed(t, env, ci.ID); !reflect.DeepEqual(got, want) {
		t.Errorf("after degrade the communicator runs %+v, want %+v", got, want)
	}
}

// On the Clos testbed Repin moves exactly the connections whose route
// crosses the link, each onto an equal-cost path that avoids it, and
// leaves every other connection on the path it had.
func TestRepinMovesExactlyTheConnsOnTheLink(t *testing.T) {
	env, err := harness.NewEnv(harness.EnvOptions{System: ncclsim.MCCS})
	if err != nil {
		t.Fatal(err)
	}
	defer env.S.Shutdown()
	gpus, err := harness.SingleAppGPUs(env.Cluster, 8)
	if err != nil {
		t.Fatal(err)
	}
	ci := initIdleComm(t, env, gpus)
	comm, _ := env.Deployment.Comm(ci.ID)
	net := env.Cluster.Net
	l := netsim.LinkID(-1)
	for i := 0; i < net.NumLinks(); i++ {
		if net.LinkName(netsim.LinkID(i)) == "leaf0->spine0" {
			l = netsim.LinkID(i)
		}
	}
	if l < 0 {
		t.Fatal("the Clos testbed has no leaf0->spine0 link")
	}

	before := comm.ConnRoutes()
	aff := policy.AffectedConns(env.Deployment, ci, l)
	if len(aff) == 0 || len(aff) == len(before) {
		t.Fatalf("%d of %d connections cross %s, want some but not all", len(aff), len(before), net.LinkName(l))
	}
	if !policy.Repin(env.Deployment, ci, aff, l) {
		t.Fatal("Repin found no clean path on a fabric with path diversity")
	}

	after := comm.ConnRoutes()
	if len(after) != len(before) {
		t.Fatalf("%d connections after the re-pin, %d before", len(after), len(before))
	}
	for key, path := range after {
		if slices.Contains(path, l) {
			t.Errorf("connection %+v still crosses %s", key, net.LinkName(l))
		}
		if !slices.Contains(aff, key) && !slices.Equal(path, before[key]) {
			t.Errorf("connection %+v did not cross %s but moved %v -> %v", key, net.LinkName(l), before[key], path)
		}
	}
	if g := comm.Runners[0].Generation(); g != 0 {
		t.Errorf("generation = %d, want 0 (a re-pin does not reconfigure)", g)
	}
}

// On the Fig. 7 switch ring no equal-cost alternative exists: Repin moves
// nothing and reports false, and Reverse installs the reversed strategy.
func TestRepinRefusesAndReverseReversesOnSwitchRing(t *testing.T) {
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
	defer env.S.Shutdown()
	var gpus []topo.GPUID
	for _, h := range cluster.Hosts {
		gpus = append(gpus, h.GPUs...)
	}
	ci := initIdleComm(t, env, gpus)
	l, err := cluster.RingLinkBetween(1, 2)
	if err != nil {
		t.Fatal(err)
	}

	cur := installed(t, env, ci.ID)
	aff := policy.AffectedConns(env.Deployment, ci, l)
	if len(aff) == 0 {
		t.Fatal("no connection crosses the clockwise ring link")
	}
	if policy.Repin(env.Deployment, ci, aff, l) {
		t.Error("Repin reported a clean path on a fabric with none")
	}
	if got := installed(t, env, ci.ID); !reflect.DeepEqual(got, cur) {
		t.Errorf("a refused Repin changed the strategy to %+v", got)
	}

	reverseAndWait(t, env, ci.ID)
	if got, want := installed(t, env, ci.ID), cur.Reversed(); !reflect.DeepEqual(got, want) {
		t.Errorf("after Reverse the communicator runs %+v, want %+v", got, want)
	}
}
