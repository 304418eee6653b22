package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mccs/internal/collective"
	"mccs/internal/ncclsim"
	"mccs/internal/sim"
	"mccs/internal/telemetry"
	"mccs/internal/topo"
	"mccs/internal/trace"
)

// readTrace, readSeries and readIncidents parse an exported artifact
// back, failing the test when it is missing or malformed.
func readTrace(t *testing.T, path string) trace.Recording {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("trace not written: %v", err)
	}
	defer f.Close()
	rec, err := trace.ReadChrome(f)
	if err != nil {
		t.Fatalf("trace %s does not parse: %v", path, err)
	}
	return rec
}

func readSeries(t *testing.T, path string) *telemetry.Series {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("telemetry not written: %v", err)
	}
	defer f.Close()
	se, err := telemetry.ReadJSONL(f)
	if err != nil {
		t.Fatalf("telemetry %s does not parse: %v", path, err)
	}
	return se
}

func readIncidents(t *testing.T, path string) [][]byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("doctor report not written: %v", err)
	}
	lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
	for i, line := range lines {
		if !json.Valid(line) {
			t.Fatalf("doctor JSONL %s line %d is not JSON: %s", path, i, line)
		}
	}
	if !bytes.Contains(lines[0], []byte(`"kind":"doctor"`)) {
		t.Fatalf("doctor JSONL %s has no header record: %s", path, lines[0])
	}
	return lines
}

// TestObserverMatrixScheduleNeutral: whichever of trace, telemetry and
// doctor are attached, an 8-rank AllReduce loop fires exactly the events
// of the bare environment — same (at, seq) stream, same count — and every
// artifact Export writes parses back.
func TestObserverMatrixScheduleNeutral(t *testing.T) {
	dir := t.TempDir()
	run := func(obs Observers) (hash uint64, events int) {
		env, err := NewEnv(EnvOptions{System: ncclsim.MCCS, Observers: obs})
		if err != nil {
			t.Fatal(err)
		}
		defer env.S.Shutdown()
		hash = 14695981039346656037
		env.S.SetEventObserver(func(at sim.Time, seq uint64, _ sim.EventKind, _ sim.Handler) {
			for _, v := range [2]uint64{uint64(at), seq} {
				for i := 0; i < 8; i++ {
					hash = (hash ^ v&0xff) * 1099511628211
					v >>= 8
				}
			}
			events++
		})
		gpus, err := SingleAppGPUs(env.Cluster, 8)
		if err != nil {
			t.Fatal(err)
		}
		const count = 1 << 18
		for rank, gpu := range gpus {
			rank, gpu := rank, gpu
			env.S.Go("rank", func(p *sim.Proc) {
				f := env.Deployment.Service(env.Cluster.HostOfGPU(gpu)).Frontend("app")
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
				for i := 0; i < 3; i++ {
					h, err := comm.AllReduce(p, nil, buf, count, nil)
					if err != nil {
						t.Error(err)
						return
					}
					h.Wait(p)
				}
			})
		}
		if err := env.S.Run(); err != nil {
			t.Fatal(err)
		}
		if err := env.Export(); err != nil {
			t.Fatal(err)
		}
		return hash, events
	}

	bareHash, bareEvents := run(Observers{})
	if bareEvents == 0 {
		t.Fatal("bare run fired no events")
	}
	for mask := 1; mask < 8; mask++ {
		name := fmt.Sprintf("trace=%t,telemetry=%t,doctor=%t", mask&1 != 0, mask&2 != 0, mask&4 != 0)
		var obs Observers
		if mask&1 != 0 {
			obs.TracePath = filepath.Join(dir, fmt.Sprint(mask, ".trace.json"))
		}
		if mask&2 != 0 {
			obs.TelemetryPath = filepath.Join(dir, fmt.Sprint(mask, ".tel.jsonl"))
			obs.TelemetryEvery = 100 * time.Microsecond
		}
		if mask&4 != 0 {
			obs.DoctorPath = filepath.Join(dir, fmt.Sprint(mask, ".inc.jsonl"))
		}
		hash, events := run(obs)
		if hash != bareHash || events != bareEvents {
			t.Errorf("%s: schedule (%#x, %d events), bare env (%#x, %d events)", name, hash, events, bareHash, bareEvents)
		}
		if obs.TracePath != "" {
			if rec := readTrace(t, obs.TracePath); len(rec.Spans) == 0 {
				t.Errorf("%s: trace has no spans", name)
			}
		}
		if obs.TelemetryPath != "" {
			if se := readSeries(t, obs.TelemetryPath); len(se.Samples) < 2 {
				t.Errorf("%s: telemetry has %d samples", name, len(se.Samples))
			}
		}
		if obs.DoctorPath != "" {
			readIncidents(t, obs.DoctorPath)
		}
	}
}

// TestObserverRuleOnEveryDriver runs the one Observers rule over every
// Run* driver: nothing set observes nothing; a telemetry path alone
// samples at the default interval; an interval alone samples without
// writing (SingleApp and MultiApp used to ignore it); path plus interval
// samples at that interval; a doctor path alone implies tracing but writes
// no trace; and everything together writes three parseable files.
func TestObserverRuleOnEveryDriver(t *testing.T) {
	single := SingleAppConfig{System: ncclsim.MCCS, Op: collective.AllReduce, Bytes: 1 << 20, NumGPUs: 4, Warmup: 1, Iters: 2, Trials: 2}
	testbed, err := topo.BuildClos(topo.TestbedConfig())
	if err != nil {
		t.Fatal(err)
	}
	apps, err := Setup(testbed, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Each driver returns the series its result carries, if it carries one.
	drivers := []struct {
		name          string
		returnsSeries bool
		run           func(Observers) (*telemetry.Series, error)
	}{
		{"RunSingleApp", false, func(o Observers) (*telemetry.Series, error) {
			cfg := single
			cfg.Observers = o
			_, err := RunSingleApp(cfg)
			return nil, err
		}},
		{"RunMultiApp", false, func(o Observers) (*telemetry.Series, error) {
			_, err := RunMultiApp(MultiAppConfig{System: ncclsim.MCCS, Apps: apps, Bytes: 1 << 20, Warmup: 1, Iters: 2, Trials: 2, Observers: o})
			return nil, err
		}},
		{"RunQoS", false, func(o Observers) (*telemetry.Series, error) {
			_, err := RunQoS(QoSConfig{Solution: SolutionFFA, IterationsA: 1, IterationsBC: 1, Observers: o})
			return nil, err
		}},
		{"RunDynamic", false, func(o Observers) (*telemetry.Series, error) {
			_, err := RunDynamic(DynamicConfig{T1: 200 * time.Millisecond, T2: 400 * time.Millisecond, T3: 600 * time.Millisecond, T4: 800 * time.Millisecond, RunFor: time.Second, Observers: o})
			return nil, err
		}},
		{"RunReconfigShowcase", true, func(o Observers) (*telemetry.Series, error) {
			cfg := DefaultReconfigConfig()
			cfg.RunFor, cfg.BgStart, cfg.ReconfigAt = time.Second, 300*time.Millisecond, 600*time.Millisecond
			cfg.Observers = o
			res, err := RunReconfigShowcase(cfg)
			return res.Telemetry, err
		}},
		{"RunChurn", false, func(o Observers) (*telemetry.Series, error) {
			cfg := DefaultChurnConfig()
			cfg.Jobs = 2
			cfg.Observers = o
			_, err := RunChurn(cfg)
			return nil, err
		}},
	}
	const every = 7 * time.Millisecond
	for _, d := range drivers {
		d := d
		t.Run(d.name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			tr, tel, doc := filepath.Join(dir, "t.json"), filepath.Join(dir, "tel.jsonl"), filepath.Join(dir, "inc.jsonl")
			cases := []struct {
				name     string
				obs      Observers
				interval time.Duration // of the sampled series; 0 = not sampled
			}{
				{"none", Observers{}, 0},
				{"path", Observers{TelemetryPath: tel}, telemetry.DefaultInterval},
				{"interval", Observers{TelemetryEvery: every}, every},
				{"path+interval", Observers{TelemetryPath: tel, TelemetryEvery: every}, every},
				{"doctor", Observers{DoctorPath: doc}, 0},
				{"all", Observers{TracePath: tr, TelemetryPath: tel, TelemetryEvery: every, DoctorPath: doc}, every},
			}
			for _, tc := range cases {
				for _, p := range []string{tr, tel, doc} {
					os.Remove(p)
				}
				se, err := d.run(tc.obs)
				if err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
				if d.returnsSeries {
					if sampled := se != nil; sampled != (tc.interval > 0) {
						t.Errorf("%s: result carries a series = %t, want %t", tc.name, sampled, tc.interval > 0)
					} else if sampled && se.Interval != tc.interval {
						t.Errorf("%s: result series interval = %v, want %v", tc.name, se.Interval, tc.interval)
					}
				}
				for _, f := range []struct{ path, want string }{{tr, tc.obs.TracePath}, {tel, tc.obs.TelemetryPath}, {doc, tc.obs.DoctorPath}} {
					if _, err := os.Stat(f.path); (err == nil) != (f.want != "") {
						t.Errorf("%s: %s written = %t, want %t", tc.name, filepath.Base(f.path), err == nil, f.want != "")
					}
				}
				if tc.obs.TelemetryPath != "" {
					if se := readSeries(t, tel); se.Interval != tc.interval || len(se.Samples) == 0 {
						t.Errorf("%s: exported series has interval %v and %d samples, want interval %v", tc.name, se.Interval, len(se.Samples), tc.interval)
					}
				}
				if tc.obs.TracePath != "" {
					if rec := readTrace(t, tr); len(rec.Spans) == 0 {
						t.Errorf("%s: trace has no spans", tc.name)
					}
				}
				if tc.obs.DoctorPath != "" {
					readIncidents(t, doc)
				}
			}
		})
	}
}

// TestMultiTrialDriversObserveFirstTrialOnly: with two trials the trace a
// driver leaves behind is the first trial's — byte for byte the file a
// one-trial run of the same seed writes — not the second's overwrite.
func TestMultiTrialDriversObserveFirstTrialOnly(t *testing.T) {
	dir := t.TempDir()
	record := func(name string, trials int) []byte {
		path := filepath.Join(dir, name)
		_, err := RunSingleApp(SingleAppConfig{
			System: ncclsim.MCCSNoFA, Op: collective.AllReduce, Bytes: 1 << 20, NumGPUs: 8,
			Warmup: 1, Iters: 2, Trials: trials, Seed: 3,
			Observers: Observers{TracePath: path},
		})
		if err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	if one, two := record("one.json", 1), record("two.json", 2); !bytes.Equal(one, two) {
		t.Error("a two-trial run's trace is not its first trial's recording")
	}
}

// TestLiveDoctorIndependentOfTelemetry: the live doctor names links and
// tenants from the recorder's metadata, as a replay does, so attaching the
// telemetry plane changes none of its incidents. SLO incidents come only
// from the telemetry plane's violations and shift the IDs after them, so
// both are left out of the comparison.
func TestLiveDoctorIndependentOfTelemetry(t *testing.T) {
	dir := t.TempDir()
	run := func(name string, every time.Duration) []map[string]any {
		cfg := DefaultReconfigConfig()
		cfg.RunFor, cfg.BgStart, cfg.ReconfigAt = 4*time.Second, time.Second, 2*time.Second
		cfg.DoctorPath = filepath.Join(dir, name+".jsonl")
		cfg.TelemetryEvery = every
		if _, err := RunReconfigShowcase(cfg); err != nil {
			t.Fatal(err)
		}
		var out []map[string]any
		for _, line := range readIncidents(t, cfg.DoctorPath)[1:] {
			var in map[string]any
			if err := json.Unmarshal(line, &in); err != nil {
				t.Fatal(err)
			}
			if in["detector"] == "slo" {
				continue
			}
			delete(in, "id")
			out = append(out, in)
		}
		return out
	}
	bare := run("bare", 0)
	observed := run("observed", telemetry.DefaultInterval)
	if len(bare) != len(observed) {
		t.Fatalf("%d incidents without telemetry, %d with", len(bare), len(observed))
	}
	stalls := 0
	for i := range bare {
		a, _ := json.Marshal(bare[i])
		b, _ := json.Marshal(observed[i])
		if !bytes.Equal(a, b) {
			t.Errorf("incident %d differs:\nwithout telemetry %s\nwith telemetry    %s", i, a, b)
		}
		if bare[i]["class"] == "reconfig-stall" {
			stalls++
			if bare[i]["tenant"] == nil {
				t.Errorf("reconfig-stall incident names no tenant: %s", a)
			}
		}
	}
	if stalls == 0 {
		t.Error("the ring reversal raised no reconfig-stall incident")
	}
}
