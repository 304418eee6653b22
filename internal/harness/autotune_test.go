package harness

import (
	"bytes"
	"cmp"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mccs/internal/collective"
	"mccs/internal/ncclsim"
	"mccs/internal/policy"
	"mccs/internal/sim"
	"mccs/internal/spec"
	"mccs/internal/telemetry"
	"mccs/internal/workload"
)

// The acceptance scenario: on the Fig. 6 cross-rack setup, the autotuned
// strategy must match or beat the best hand-tuned configuration (full
// MCCS: locality rings, one per path, pinned).
func TestAutotuneMatchesOrBeatsHandTuned(t *testing.T) {
	const size = 64 << 20
	base := SingleAppConfig{
		System: ncclsim.MCCS, Op: collective.AllReduce, Bytes: size,
		NumGPUs: 8, Warmup: 2, Iters: 4, Trials: 4,
	}
	hand, err := RunSingleApp(base)
	if err != nil {
		t.Fatal(err)
	}
	tuned := base
	tuned.Autotune = true
	auto, err := RunSingleApp(tuned)
	if err != nil {
		t.Fatal(err)
	}
	// Both sides have the same op and rank count, so algorithm bandwidth
	// ranks them as bus bandwidth would.
	if auto.AlgBW.Mean < 0.98*hand.AlgBW.Mean {
		t.Errorf("autotuned algorithm bandwidth %.4g < hand-tuned %.4g", auto.AlgBW.Mean, hand.AlgBW.Mean)
	}
	// And it must demolish the topology-oblivious baseline strategy.
	naive := base
	naive.System = ncclsim.MCCSNoFA
	nv, err := RunSingleApp(naive)
	if err != nil {
		t.Fatal(err)
	}
	if auto.AlgBW.Mean < nv.AlgBW.Mean {
		t.Errorf("autotuned %.4g lost to the un-pinned ablation %.4g", auto.AlgBW.Mean, nv.AlgBW.Mean)
	}
}

// The decision must be visible in both observability planes: the
// strategy-info gauge in the telemetry JSONL and KindTuner candidate
// spans in the trace export.
func TestAutotuneDecisionVisible(t *testing.T) {
	dir := t.TempDir()
	cfg := SingleAppConfig{
		System: ncclsim.MCCS, Op: collective.AllReduce, Bytes: 64 << 20,
		NumGPUs: 8, Warmup: 1, Iters: 3, Trials: 1,
		Autotune: true,
		Observers: Observers{
			TracePath:     filepath.Join(dir, "trace.json"),
			TelemetryPath: filepath.Join(dir, "tel.jsonl"),
		},
	}
	if _, err := RunSingleApp(cfg); err != nil {
		t.Fatal(err)
	}
	tel, err := os.ReadFile(cfg.TelemetryPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"mccs_tuner_searches_total",
		"mccs_tuner_predicted_seconds",
		"mccs_tuner_achieved_seconds",
		"mccs_tuner_strategy_info",
	} {
		if !strings.Contains(string(tel), want) {
			t.Errorf("telemetry export missing %s", want)
		}
	}
	tr, err := os.ReadFile(cfg.TracePath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(tr), "tune:") {
		t.Error("trace export has no tuner candidate spans")
	}
	if !strings.Contains(string(tr), "tune:ring/locality") {
		t.Error("trace export does not name the locality candidates")
	}
}

// Same seed, autotune on: exports must be byte-identical across runs
// (the tuner adds no nondeterminism to the schedule).
func TestAutotuneDeterministic(t *testing.T) {
	dir := t.TempDir()
	run := func(name string) ([]byte, []byte) {
		cfg := SingleAppConfig{
			System: ncclsim.MCCS, Op: collective.AllReduce, Bytes: 16 << 20,
			NumGPUs: 8, Warmup: 1, Iters: 3, Trials: 1, Seed: 7,
			Autotune: true,
			Observers: Observers{
				TracePath:     filepath.Join(dir, name+".trace.json"),
				TelemetryPath: filepath.Join(dir, name+".tel.jsonl"),
			},
		}
		if _, err := RunSingleApp(cfg); err != nil {
			t.Fatal(err)
		}
		tr, err := os.ReadFile(cfg.TracePath)
		if err != nil {
			t.Fatal(err)
		}
		tel, err := os.ReadFile(cfg.TelemetryPath)
		if err != nil {
			t.Fatal(err)
		}
		return tr, tel
	}
	tr1, tel1 := run("a")
	tr2, tel2 := run("b")
	if !bytes.Equal(tr1, tr2) {
		t.Error("trace exports differ between identical autotuned runs")
	}
	if !bytes.Equal(tel1, tel2) {
		t.Error("telemetry exports differ between identical autotuned runs")
	}
	if len(tr1) == 0 || len(tel1) == 0 {
		t.Error("empty export")
	}
}

// Fig. 7 with the scripted reversal replaced by the autotuner: the cost
// model reads the background flow off the fabric and the search must
// rediscover a strategy that restores the original bandwidth.
func TestFig7AutotuneRecovers(t *testing.T) {
	cfg := DefaultReconfigConfig()
	cfg.RunFor = 18 * time.Second
	cfg.Autotune = true
	res, err := RunReconfigShowcase(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded >= res.Before/1.5 {
		t.Errorf("background flow degraded %.3g -> %.3g; want a big drop", res.Before, res.Degraded)
	}
	if res.Recovered < 0.9*res.Before {
		t.Errorf("autotuner recovered only %.3g of %.3g", res.Recovered, res.Before)
	}
}

// Multi-app autotune: all communicators tuned, run completes, bandwidth
// stays within the ballpark of the FFA-managed run.
func TestMultiAppAutotune(t *testing.T) {
	c, err := NewEnv(EnvOptions{System: ncclsim.MCCS})
	if err != nil {
		t.Fatal(err)
	}
	apps, err := Setup(c.Cluster, 1)
	if err != nil {
		t.Fatal(err)
	}
	base := MultiAppConfig{
		System: ncclsim.MCCS, Apps: apps, Bytes: 64 << 20,
		Warmup: 1, Iters: 4, Trials: 2,
	}
	plain, err := RunMultiApp(base)
	if err != nil {
		t.Fatal(err)
	}
	tuned := base
	tuned.Autotune = true
	auto, err := RunMultiApp(tuned)
	if err != nil {
		t.Fatal(err)
	}
	if auto.Aggregate < 0.9*plain.Aggregate {
		t.Errorf("autotuned aggregate %.4g well below FFA aggregate %.4g", auto.Aggregate, plain.Aggregate)
	}
}

// Two deciders that retune one tenant and pick different winners leave
// one mccs_tuner_strategy_info series at 1, the later winner's: they act
// through the deployment's one controller, which remembers each tenant's
// live strategy. Here a plan (as the chaos autotuner runs) tunes for
// kilobyte collectives and the blocking form (as remediation calls it) for
// 64 MB ones; when each decider built its own controller, both winners
// read 1 and mccs top showed two strategies.
func TestOneStrategyInfoPerTenant(t *testing.T) {
	env, err := NewEnv(EnvOptions{System: ncclsim.MCCS, Observers: Observers{TelemetryEvery: time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	gpus, err := SingleAppGPUs(env.Cluster, 8)
	if err != nil {
		t.Fatal(err)
	}
	var id spec.CommID
	workload.Launch(workload.RunConfig{
		Dep: env.Deployment, App: "bench", Key: "bench", GPUs: gpus,
		Trace: loopTrace(collective.AllReduce, 1<<20, false), Iterations: 40,
		OnReady: func(_ *sim.Proc, _ int, comm spec.CommID) { id = comm },
	})
	small := policy.AutotuneOptions{Op: collective.AllReduce, Bytes: 1 << 10}
	large := policy.AutotuneOptions{Op: collective.AllReduce, Bytes: 64 << 20, NoTree: true}
	var finish func()
	env.Controller().Run("small", policy.Plan{
		{When: policy.After(time.Millisecond), Do: func() (l *sim.Latch, err error) {
			l, finish, err = env.Controller().StartAutotune(id, small)
			return l, err
		}},
		{Do: func() (*sim.Latch, error) { finish(); return nil, nil }},
	})
	var largeErr error
	env.S.Go("large", func(p *sim.Proc) {
		p.Sleep(5 * time.Millisecond)
		largeErr = env.Controller().Autotune(p, id, large)
	})
	if err := env.S.Run(); err != nil {
		t.Fatal(err)
	}
	if err := cmp.Or(env.Controller().Err(), largeErr); err != nil {
		t.Fatal(err)
	}
	var live, series []string
	var prom strings.Builder
	if err := telemetry.WritePrometheus(&prom, telemetry.Of(env.S)); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(prom.String(), "\n") {
		if strings.HasPrefix(line, "mccs_tuner_strategy_info{") && strings.Contains(line, `tenant="bench"`) {
			series = append(series, line)
			if strings.HasSuffix(line, " 1") {
				live = append(live, line)
			}
		}
	}
	if len(series) != 2 {
		t.Fatalf("the two passes picked %d strategies, want two different ones: %q", len(series), series)
	}
	if len(live) != 1 {
		t.Errorf("%d strategy series read 1, want one: %q", len(live), series)
	}
}
