package harness

import (
	"strings"
	"testing"
	"time"

	"mccs/internal/collective"
	"mccs/internal/ncclsim"
	"mccs/internal/spec"
)

func runSingle(t *testing.T, sys ncclsim.System, op collective.Op, bytes int64, gpus int) SingleAppResult {
	t.Helper()
	res, err := RunSingleApp(SingleAppConfig{
		System: sys, Op: op, Bytes: bytes, NumGPUs: gpus, Warmup: 2, Iters: 4, Trials: 6,
	})
	if err != nil {
		t.Fatalf("%v %v %d: %v", sys, op, bytes, err)
	}
	return res
}

func TestFig6LargeMessageOrdering(t *testing.T) {
	// 512 MB AllReduce on 8 GPUs: NCCL (zigzag rings + ECMP) must lose
	// to NCCL(OR) (optimal rings), and full MCCS (optimal rings + flow
	// assignment) must beat both in expectation over ECMP draws;
	// MCCS(-FA) sits near NCCL(OR).
	const size = 512 << 20
	nccl := runSingle(t, ncclsim.NCCL, collective.AllReduce, size, 8).AlgBW.Mean
	or := runSingle(t, ncclsim.NCCLOR, collective.AllReduce, size, 8).AlgBW.Mean
	noFA := runSingle(t, ncclsim.MCCSNoFA, collective.AllReduce, size, 8).AlgBW.Mean
	full := runSingle(t, ncclsim.MCCS, collective.AllReduce, size, 8).AlgBW.Mean

	if or <= nccl {
		t.Errorf("NCCL(OR) %.2g <= NCCL %.2g; optimal ring should win", or, nccl)
	}
	if full < 1.1*or {
		t.Errorf("MCCS %.2g should beat NCCL(OR) %.2g by avoiding ECMP collisions", full, or)
	}
	if full < 1.5*nccl {
		t.Errorf("MCCS %.2g < 1.5x NCCL %.2g; paper reports up to 2.4x", full, nccl)
	}
	// MCCS(-FA) uses the same rings and ECMP as NCCL(OR); at 512 MB the
	// service overhead vanishes so they should be statistically close.
	ratio := noFA / or
	if ratio < 0.80 || ratio > 1.25 {
		t.Errorf("MCCS(-FA)/NCCL(OR) = %.3f at 512MB, want ~1.0", ratio)
	}
}

func TestFig6SmallMessagePenalty(t *testing.T) {
	// 512 KB: the service datapath latency makes MCCS(-FA) measurably
	// slower than NCCL(OR) (the paper reports ~51-63% lower).
	const size = 512 << 10
	or := runSingle(t, ncclsim.NCCLOR, collective.AllReduce, size, 4).AlgBW.Mean
	noFA := runSingle(t, ncclsim.MCCSNoFA, collective.AllReduce, size, 4).AlgBW.Mean
	if noFA >= or {
		t.Errorf("MCCS(-FA) %.3g >= NCCL(OR) %.3g at 512KB; datapath latency should cost", noFA, or)
	}
	// And the gap closes at 64 MB.
	const big = 64 << 20
	orBig := runSingle(t, ncclsim.NCCLOR, collective.AllReduce, big, 4).AlgBW.Mean
	noFABig := runSingle(t, ncclsim.MCCSNoFA, collective.AllReduce, big, 4).AlgBW.Mean
	if noFABig < 0.95*orBig {
		t.Errorf("MCCS(-FA) %.3g vs NCCL(OR) %.3g at 64MB: gap should close", noFABig, orBig)
	}
}

func TestFig6AllGather(t *testing.T) {
	const size = 128 << 20
	nccl := runSingle(t, ncclsim.NCCL, collective.AllGather, size, 8).AlgBW.Mean
	full := runSingle(t, ncclsim.MCCS, collective.AllGather, size, 8).AlgBW.Mean
	if full <= nccl {
		t.Errorf("MCCS AllGather %.3g <= NCCL %.3g", full, nccl)
	}
}

func TestFig7ReconfigTimeline(t *testing.T) {
	cfg := DefaultReconfigConfig()
	cfg.RunFor = 18 * time.Second
	res, err := RunReconfigShowcase(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) < 20 {
		t.Fatalf("only %d samples", len(res.Series))
	}
	if res.Degraded >= res.Before/1.5 {
		t.Errorf("background flow degraded %.3g -> %.3g; want a big drop", res.Before, res.Degraded)
	}
	if res.Recovered < 0.9*res.Before {
		t.Errorf("reconfiguration recovered only %.3g of %.3g", res.Recovered, res.Before)
	}
}

func TestFig8Setup3FairShare(t *testing.T) {
	// Setup 3 under full MCCS: A (2 NICs/host) should get ~2x the bus
	// bandwidth of B and C (1 NIC/host each).
	env, err := NewEnv(EnvOptions{System: ncclsim.MCCS})
	if err != nil {
		t.Fatal(err)
	}
	apps, err := Setup(env.Cluster, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunMultiApp(MultiAppConfig{
		System: ncclsim.MCCS, Apps: apps, Bytes: 128 << 20, Warmup: 5, Iters: 25, Trials: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	a := res.BusBW["A"].Mean
	b := res.BusBW["B"].Mean
	c := res.BusBW["C"].Mean
	if a <= 0 || b <= 0 || c <= 0 {
		t.Fatalf("zero bandwidth: A=%g B=%g C=%g", a, b, c)
	}
	// A must get substantially more than B/C (its 2 NICs/host), and the
	// median B share must sit at the max-min fair 25 Gbps. The mean A/B
	// ratio lands below the ideal 2.0 because max-min is work
	// conserving: when one of A's channels waits for the other at the
	// per-collective join, B and C soak up the slack (see
	// EXPERIMENTS.md).
	if ra := a / b; ra < 1.35 || ra > 2.4 {
		t.Errorf("A/B = %.2f, want in [1.35, 2.4] (~2 ideal)", ra)
	}
	if rbc := b / c; rbc < 0.95 || rbc > 1.05 {
		t.Errorf("B/C = %.2f, want ~1 (symmetric tenants)", rbc)
	}
	if med := res.BusBW["B"].P50; med < 2.9e9 || med > 3.4e9 {
		t.Errorf("B median busbw = %.3g, want ~3.125e9 (25 Gbps fair share)", med)
	}
}

func TestFig8MCCSBeatsNCCLAggregate(t *testing.T) {
	for _, setup := range []int{1, 2} {
		env, err := NewEnv(EnvOptions{System: ncclsim.NCCL})
		if err != nil {
			t.Fatal(err)
		}
		apps, err := Setup(env.Cluster, setup)
		if err != nil {
			t.Fatal(err)
		}
		run := func(sys ncclsim.System) MultiAppResult {
			res, err := RunMultiApp(MultiAppConfig{
				System: sys, Apps: apps, Bytes: 128 << 20, Warmup: 2, Iters: 6, Trials: 1,
			})
			if err != nil {
				t.Fatalf("setup %d %v: %v", setup, sys, err)
			}
			return res
		}
		nccl := run(ncclsim.NCCL)
		mccs := run(ncclsim.MCCS)
		if mccs.Aggregate <= nccl.Aggregate {
			t.Errorf("setup %d: MCCS aggregate %.3g <= NCCL %.3g", setup, mccs.Aggregate, nccl.Aggregate)
		}
	}
}

func TestSetupsWellFormed(t *testing.T) {
	env, err := NewEnv(EnvOptions{System: ncclsim.MCCS})
	if err != nil {
		t.Fatal(err)
	}
	seenGPUs := make(map[int]map[int]bool)
	for s := 1; s <= 4; s++ {
		apps, err := Setup(env.Cluster, s)
		if err != nil {
			t.Fatal(err)
		}
		seenGPUs[s] = make(map[int]bool)
		for _, a := range apps {
			for _, g := range a.GPUs {
				if seenGPUs[s][int(g)] {
					t.Errorf("setup %d: GPU %d assigned twice", s, g)
				}
				seenGPUs[s][int(g)] = true
			}
		}
	}
	if _, err := Setup(env.Cluster, 9); err == nil {
		t.Error("unknown setup accepted")
	}
	// Interleaved hosts alternate racks.
	hosts := InterleavedHosts(env.Cluster)
	if len(hosts) != 4 {
		t.Fatalf("hosts = %v", hosts)
	}
	if env.Cluster.RackOf(hosts[0]) == env.Cluster.RackOf(hosts[1]) {
		t.Errorf("interleaved hosts %v do not alternate racks", hosts)
	}
	if _, err := SingleAppGPUs(env.Cluster, 3); err == nil {
		t.Error("non-divisible GPU count accepted")
	}
	if _, err := SingleAppGPUs(env.Cluster, 16); err == nil {
		t.Error("over-capacity GPU count accepted")
	}
	_ = spec.RouteECMP
}

// TestDriversRefuseNonPositiveCounts: a driver takes its iteration and
// trial counts as given; one below 1 is an error, not a default.
func TestDriversRefuseNonPositiveCounts(t *testing.T) {
	single := SingleAppConfig{System: ncclsim.MCCS, Op: collective.AllReduce, Bytes: 1 << 20, NumGPUs: 4, Warmup: 1, Iters: 2, Trials: 1}
	multi := MultiAppConfig{System: ncclsim.MCCS, Bytes: 1 << 20, Warmup: 1, Iters: 2, Trials: 1}
	qos := QoSConfig{Solution: SolutionFFA, IterationsA: 1, IterationsBC: 1}
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"RunSingleApp/Iters=0", func() error { c := single; c.Iters = 0; _, err := RunSingleApp(c); return err }},
		{"RunSingleApp/Trials=0", func() error { c := single; c.Trials = 0; _, err := RunSingleApp(c); return err }},
		{"RunMultiApp/Iters=-1", func() error { c := multi; c.Iters = -1; _, err := RunMultiApp(c); return err }},
		{"RunMultiApp/Trials=0", func() error { c := multi; c.Trials = 0; _, err := RunMultiApp(c); return err }},
		{"RunQoS/IterationsA=0", func() error { c := qos; c.IterationsA = 0; _, err := RunQoS(c); return err }},
		{"RunQoS/IterationsBC=0", func() error { c := qos; c.IterationsBC = 0; _, err := RunQoS(c); return err }},
	} {
		if err := tc.run(); err == nil || !strings.Contains(err.Error(), "must be at least 1") {
			t.Errorf("%s: %v, want a count error", tc.name, err)
		}
	}
}
