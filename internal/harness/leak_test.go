package harness

import (
	"runtime"
	"testing"
	"time"

	"mccs/internal/collective"
	"mccs/internal/gpusim"
	"mccs/internal/mccsd"
	"mccs/internal/ncclsim"
	"mccs/internal/topo"
)

// TestDriversShutTheirSchedulerDown: every Run* driver must close its
// environment once the results are out (see Env). Without the scheduler's
// shutdown each call leaves its goroutines — and through them its whole
// environment — behind; without the deployment's close its device memory
// is never freed. A backed buffer planted on every GPU of every
// environment the driver builds must read as freed when it returns.
func TestDriversShutTheirSchedulerDown(t *testing.T) {
	var planted []*gpusim.Buffer
	envBuilt = func(e *Env) {
		for g := range e.Cluster.GPUs {
			b, err := e.Deployment.Device(topo.GPUID(g)).AllocBacked(64)
			if err != nil {
				t.Fatal(err)
			}
			planted = append(planted, b)
		}
	}
	defer func() { envBuilt = nil }()
	single := SingleAppConfig{System: ncclsim.MCCS, Op: collective.AllReduce, Bytes: 1 << 20, NumGPUs: 8, Warmup: 1, Iters: 2, Trials: 1}
	drivers := []struct {
		name string
		run  func() error
	}{
		{"RunSingleApp", func() error { _, err := RunSingleApp(single); return err }},
		{"RunSingleApp/Mutate", func() error {
			ablated := single
			ablated.Mutate = func(c *mccsd.Config) { c.Proxy.MaxSlices = 1 }
			_, err := RunSingleApp(ablated)
			return err
		}},
		{"RunMultiApp", func() error {
			env, err := NewEnv(EnvOptions{System: ncclsim.MCCS}) // only for its cluster; nothing runs on it
			if err != nil {
				return err
			}
			defer env.Close()
			apps, err := Setup(env.Cluster, 3)
			if err != nil {
				return err
			}
			_, err = RunMultiApp(MultiAppConfig{System: ncclsim.MCCS, Apps: apps, Bytes: 1 << 20, Warmup: 1, Iters: 2, Trials: 1})
			return err
		}},
		{"RunQoS", func() error {
			_, err := RunQoS(QoSConfig{Solution: SolutionPFATS, IterationsA: 2, IterationsBC: 2})
			return err
		}},
		{"RunDynamic", func() error {
			_, err := RunDynamic(DynamicConfig{T1: time.Second, T2: 2 * time.Second, T3: 3 * time.Second, T4: 4 * time.Second, RunFor: 5 * time.Second})
			return err
		}},
		{"RunReconfigShowcase", func() error {
			cfg := DefaultReconfigConfig()
			cfg.RunFor, cfg.BgStart, cfg.ReconfigAt = 3*time.Second, time.Second, 2*time.Second
			_, err := RunReconfigShowcase(cfg)
			return err
		}},
		{"RunChurn", func() error {
			cfg := DefaultChurnConfig()
			cfg.Jobs = 2
			_, err := RunChurn(cfg)
			return err
		}},
	}
	for _, d := range drivers {
		base := runtime.NumGoroutine()
		planted = planted[:0]
		if err := d.run(); err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		if len(planted) == 0 {
			t.Errorf("%s built no environment", d.name)
		}
		for i, b := range planted {
			if b.Data() != nil {
				t.Errorf("%s: device buffer %d of %d still backed: the deployment was not closed", d.name, i, len(planted))
				break
			}
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Errorf("%s left %d goroutines behind", d.name, n-base)
		}
	}
}
