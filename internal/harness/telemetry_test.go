package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mccs/internal/collective"
	"mccs/internal/ncclsim"
	"mccs/internal/telemetry"
)

// shortReconfig is a scaled-down contended Fig. 7 scenario: the
// background flow saturates the clockwise inter-switch link for several
// seconds before the ring reversal routes around it.
func shortReconfig() ReconfigConfig {
	cfg := DefaultReconfigConfig()
	cfg.RunFor = 6 * time.Second
	cfg.BgStart = 1500 * time.Millisecond
	cfg.ReconfigAt = 4 * time.Second
	return cfg
}

// Two runs of the same seedless (fully deterministic) scenario must
// export byte-identical JSONL and Prometheus files.
func TestTelemetryExportByteIdentical(t *testing.T) {
	dir := t.TempDir()
	run := func(n int) ([]byte, []byte) {
		cfg := shortReconfig()
		cfg.TelemetryPath = filepath.Join(dir, "tel"+string(rune('0'+n))+".jsonl")
		res, err := RunReconfigShowcase(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Telemetry == nil {
			t.Fatal("no telemetry series on instrumented run")
		}
		jsonl, err := os.ReadFile(cfg.TelemetryPath)
		if err != nil {
			t.Fatal(err)
		}
		// Prometheus text from the same run, via the .prom path of the
		// file writer exercised on a second file.
		promPath := filepath.Join(dir, "tel"+string(rune('0'+n))+".prom")
		cfg2 := shortReconfig()
		cfg2.TelemetryPath = promPath
		if _, err := RunReconfigShowcase(cfg2); err != nil {
			t.Fatal(err)
		}
		prom, err := os.ReadFile(promPath)
		if err != nil {
			t.Fatal(err)
		}
		return jsonl, prom
	}
	j1, p1 := run(1)
	j2, p2 := run(2)
	if !bytes.Equal(j1, j2) {
		t.Error("JSONL exports differ between identical runs")
	}
	if !bytes.Equal(p1, p2) {
		t.Error("Prometheus exports differ between identical runs")
	}
	if len(j1) == 0 || len(p1) == 0 {
		t.Error("empty export")
	}
}

// The contended scenario must surface the Fig. 7 story through the SLO
// plane: the tenant is held below its entitlement on the saturated link
// while the background flow runs, and per-tenant goodput is visible in
// the transport counters.
func TestTelemetrySLOViolationsUnderContention(t *testing.T) {
	cfg := shortReconfig()
	cfg.TelemetryEvery = telemetry.DefaultInterval
	res, err := RunReconfigShowcase(cfg)
	if err != nil {
		t.Fatal(err)
	}
	se := res.Telemetry
	if se == nil {
		t.Fatal("no telemetry series")
	}
	if len(se.Violations) == 0 {
		t.Fatal("contended run produced no SLO violations")
	}
	for _, v := range se.Violations {
		if v.Tenant != "job" {
			t.Errorf("violation tenant = %q, want job", v.Tenant)
		}
		if v.T.Seconds() < cfg.BgStart.Seconds() || v.T.Seconds() > cfg.ReconfigAt.Seconds()+1 {
			t.Errorf("violation at %.2fs outside the contention phase [%v, %v]",
				v.T.Seconds(), cfg.BgStart, cfg.ReconfigAt)
		}
		if v.AchievedBps >= v.EntitledBps {
			t.Errorf("violation with achieved %g >= entitled %g", v.AchievedBps, v.EntitledBps)
		}
		if v.DeficitBps != v.EntitledBps-v.AchievedBps {
			t.Errorf("deficit %g != entitled-achieved %g", v.DeficitBps, v.EntitledBps-v.AchievedBps)
		}
	}
	// Per-tenant goodput: the job's tx counters grow over the run.
	cols := se.FindCols("mccs_transport_tx_bytes_total", telemetry.L("tenant", "job"))
	if len(cols) == 0 {
		t.Fatal("no per-tenant tx byte counters")
	}
	last := se.Samples[len(se.Samples)-1]
	var total float64
	for _, c := range cols {
		total += se.Value(last, c)
	}
	if total <= 0 {
		t.Error("tenant moved no bytes")
	}
	// The reconfiguration is visible in the audit counters.
	rc := se.FindCols("mccs_proxy_reconfigs_total", telemetry.L("tenant", "job"))
	if len(rc) != 1 || se.Value(last, rc[0]) == 0 {
		t.Error("reconfiguration not recorded in proxy counters")
	}
}

// Telemetry must not perturb the schedule: the measured series of an
// instrumented run matches the uninstrumented run exactly.
func TestTelemetryScheduleNeutral(t *testing.T) {
	base := shortReconfig()
	plain, err := RunReconfigShowcase(base)
	if err != nil {
		t.Fatal(err)
	}
	inst := shortReconfig()
	inst.TelemetryEvery = 50 * time.Millisecond
	instrumented, err := RunReconfigShowcase(inst)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Series) != len(instrumented.Series) {
		t.Fatalf("iteration counts differ: %d vs %d", len(plain.Series), len(instrumented.Series))
	}
	for i := range plain.Series {
		if plain.Series[i] != instrumented.Series[i] {
			t.Fatalf("iteration %d differs: %+v vs %+v", i, plain.Series[i], instrumented.Series[i])
		}
	}
}

// A single-app benchmark trial writes a readable JSONL export with
// frontend, proxy and transport instrumentation present.
func TestSingleAppTelemetryExport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.jsonl")
	_, err := RunSingleApp(SingleAppConfig{
		System: ncclsim.MCCS, Op: collective.AllReduce,
		Bytes: 4 << 20, NumGPUs: 4, Warmup: 1, Iters: 3,
		Observers: Observers{TelemetryPath: path, TelemetryEvery: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	se, err := telemetry.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(se.Samples) == 0 {
		t.Fatal("no samples")
	}
	last := se.Samples[len(se.Samples)-1]
	for _, name := range []string{
		"mccs_frontend_cmds_total",
		"mccs_proxy_ops_total",
		"mccs_proxy_steps_total",
		"mccs_transport_tx_bytes_total",
		"mccs_fabric_flows_started_total",
		"mccs_service_comms_total",
	} {
		cols := se.FindCols(name)
		if len(cols) == 0 {
			t.Errorf("no columns for %s", name)
			continue
		}
		var total float64
		for _, c := range cols {
			total += se.Value(last, c)
		}
		if total <= 0 {
			t.Errorf("%s never incremented", name)
		}
	}
}
