package harness

import (
	"testing"
	"time"

	"mccs/internal/collective"
	"mccs/internal/ncclsim"
	"mccs/internal/sim"
	"mccs/internal/topo"
)

// scheduleOf runs a driver that builds one environment and returns the
// FNV-1a fingerprint of that environment's (at, seq) event stream and its
// event count, observed through envBuilt.
func scheduleOf(t *testing.T, run func() error) (hash uint64, events int) {
	const fnvOffset, fnvPrime = uint64(14695981039346656037), uint64(1099511628211)
	hash = fnvOffset
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			hash ^= v & 0xff
			hash *= fnvPrime
			v >>= 8
		}
	}
	built := 0
	envBuilt = func(e *Env) {
		built++
		e.S.SetEventObserver(func(at sim.Time, seq uint64, _ sim.EventKind, _ sim.Handler) {
			mix(uint64(at))
			mix(seq)
			events++
		})
	}
	defer func() { envBuilt = nil }()
	if err := run(); err != nil {
		t.Fatal(err)
	}
	if built != 1 {
		t.Fatalf("the driver built %d environments, want 1", built)
	}
	return hash, events
}

// TestControllerDriverSchedules pins the simulated schedule of every
// driver whose policy decisions run as a controller plan (Figs. 6–10), on
// small configurations: a change to how the controller waits and acts
// must leave every decision at the instant it lands today, so each hash
// and event count holds.
func TestControllerDriverSchedules(t *testing.T) {
	testbed := func() *topo.Cluster {
		c, err := topo.BuildClos(topo.TestbedConfig())
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	reconfig := func(autotune bool) ReconfigConfig {
		return ReconfigConfig{
			Bytes: 16 << 20, RunFor: 2600 * time.Millisecond, BgStart: 200 * time.Millisecond,
			BgRate: 75 * 125e6, ReconfigAt: 500 * time.Millisecond, Autotune: autotune,
		}
	}
	cases := []struct {
		name   string
		run    func() error
		hash   uint64
		events int
	}{
		{"qos-ffa", func() error {
			_, err := RunQoS(QoSConfig{Solution: SolutionFFA, IterationsA: 2, IterationsBC: 2})
			return err
		}, 0xaee631ef02f24f4a, 62802},
		{"qos-pfa", func() error {
			_, err := RunQoS(QoSConfig{Solution: SolutionPFA, IterationsA: 2, IterationsBC: 2})
			return err
		}, 0x6e789e1ebbf82c03, 58165},
		{"qos-pfa-ts", func() error {
			_, err := RunQoS(QoSConfig{Solution: SolutionPFATS, IterationsA: 6, IterationsBC: 6})
			return err
		}, 0xdd150a875935722f, 187495},
		{"dynamic", func() error {
			_, err := RunDynamic(DynamicConfig{
				T1: 300 * time.Millisecond, T2: 600 * time.Millisecond,
				T3: 900 * time.Millisecond, T4: 1200 * time.Millisecond,
				RunFor: 1500 * time.Millisecond,
			})
			return err
		}, 0x4fb0d32450b49996, 114533},
		{"reconfig-scripted", func() error {
			_, err := RunReconfigShowcase(reconfig(false))
			return err
		}, 0xf670397a1e04699b, 2234678},
		{"reconfig-autotune", func() error {
			_, err := RunReconfigShowcase(reconfig(true))
			return err
		}, 0x9d93cf44157695b5, 2234680},
		{"multi-autotune", func() error {
			apps, err := Setup(testbed(), 2)
			if err != nil {
				return err
			}
			_, err = RunMultiApp(MultiAppConfig{
				System: ncclsim.MCCS, Apps: apps, Bytes: 1 << 20, Warmup: 1, Iters: 2, Trials: 1, Autotune: true,
			})
			return err
		}, 0xac46649909a8b4df, 779},
		{"single-autotune", func() error {
			_, err := RunSingleApp(SingleAppConfig{
				System: ncclsim.MCCS, Op: collective.AllReduce, Bytes: 1 << 20,
				NumGPUs: 8, Warmup: 1, Iters: 2, Trials: 1, Autotune: true,
			})
			return err
		}, 0xa75a3b30d4f656ee, 3762},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if hash, events := scheduleOf(t, c.run); hash != c.hash || events != c.events {
				t.Errorf("schedule moved: hash %#x, %d events; want %#x, %d", hash, events, c.hash, c.events)
			}
		})
	}
}
