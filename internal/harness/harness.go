// Package harness drives the paper's testbed experiments end to end: it
// builds a cluster + fabric + deployment for one of the four evaluated
// systems, runs each experiment's tenants through workload.Launch and
// aggregates bandwidth statistics. The cmd/ tools, the root-level
// benchmarks and the integration tests all share these drivers.
package harness

import (
	"cmp"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"mccs/internal/collective"
	"mccs/internal/diagnosis"
	"mccs/internal/mccsd"
	"mccs/internal/metrics"
	"mccs/internal/ncclsim"
	"mccs/internal/netsim"
	"mccs/internal/policy"
	"mccs/internal/sim"
	"mccs/internal/spec"
	"mccs/internal/telemetry"
	"mccs/internal/topo"
	"mccs/internal/trace"
	"mccs/internal/workload"
)

// Env is one experiment environment.
//
// Whoever builds one calls Close once it has copied the results out (the
// Run* drivers defer it). Close shuts the scheduler down — the deployment's
// service loops are daemons parked forever, and each parked goroutine keeps
// the whole environment (trace ring, telemetry samples, fabric) reachable
// until it is unwound — and then closes the deployment, whose device memory
// and communicators' idle message snapshots go back to its scratch
// (mccsd.Config.Scratch; only chaos sets one): a backed buffer reads nil
// from then on, and a slice taken from one before must not be used after.
// Last, the flight recorder is released: its chunks go back to the scratch
// and it holds no span, so take any Recording (Recorder.Snapshot) first.
type Env struct {
	S          *sim.Scheduler
	Cluster    *topo.Cluster
	Fabric     *netsim.Fabric
	Deployment *mccsd.Deployment
	// Telemetry is the sim-time sampler when the observers include
	// telemetry; nil otherwise.
	Telemetry *telemetry.Sampler
	// Doctor is the live diagnosis engine when the observers include
	// it; nil otherwise.
	Doctor *diagnosis.Engine

	obs Observers
}

// Observers selects the observation planes an environment carries and
// where Export writes what they saw. The zero value observes nothing.
// Every driver config embeds it, so one rule holds everywhere:
//
//   - trace: a full-detail flight recorder is attached when TraceCap or
//     TracePath is set, or when the doctor is on (the doctor reads spans);
//   - telemetry: the metrics registry is attached and sampled when
//     TelemetryPath or TelemetryEvery is set — an interval alone still
//     samples, the series is then only reachable through Env.Telemetry
//     (or the driver result that carries it);
//   - doctor: the online diagnosis engine is attached when Doctor or
//     DoctorPath is set.
//
// No observer schedules an event, so a run's simulated schedule is the
// same under every combination. Drivers that repeat an experiment over
// several trials observe the first trial only: one recording is the
// artifact, later trials would overwrite it.
type Observers struct {
	// TraceCap is the flight recorder's ring size in spans
	// (trace.DefaultCapacity when zero and tracing is on).
	TraceCap int
	// TracePath receives the recording as Chrome trace-event JSON (view
	// in Perfetto, or `mccs trace summarize`).
	TracePath string
	// TelemetryEvery is the sampling interval
	// (telemetry.DefaultInterval when zero and telemetry is on).
	TelemetryEvery time.Duration
	// TelemetryPath receives the sampled series: JSONL, or Prometheus
	// text when the path ends in ".prom".
	TelemetryPath string
	// Doctor attaches the diagnosis engine without writing a report;
	// the caller reads Env.Doctor.
	Doctor bool
	// DoctorPath receives the health report: incident JSONL when the
	// path ends in ".jsonl", the text timeline otherwise.
	DoctorPath string
}

// EnvOptions parameterizes NewEnv.
type EnvOptions struct {
	System ncclsim.System
	// Cluster is the topology to deploy on; nil builds the paper's
	// 4-host testbed.
	Cluster *topo.Cluster
	// Salt is the ECMP label salt: repeated trials vary it to sample the
	// ECMP collision distribution (the paper's shaded percentile bands
	// come from exactly this variance).
	Salt uint64
	// Mutate edits the system's service config before the deployment is
	// built. The chaos harness weakens the reconfiguration protocol and
	// sets its mccsd.Scratch with it; ablations override individual knobs.
	Mutate    func(*mccsd.Config)
	Observers Observers
}

// NewEnv builds an experiment environment: cluster, scheduler, fabric,
// deployment and the requested observers.
func NewEnv(o EnvOptions) (*Env, error) {
	cluster := o.Cluster
	if cluster == nil {
		var err error
		if cluster, err = topo.BuildClos(topo.TestbedConfig()); err != nil {
			return nil, err
		}
	}
	// The Observers rule: paths and the doctor switch their planes on.
	obs := o.Observers
	doctor := obs.Doctor || obs.DoctorPath != ""
	if obs.TraceCap <= 0 && (obs.TracePath != "" || doctor) {
		obs.TraceCap = trace.DefaultCapacity
	}
	if obs.TelemetryEvery <= 0 && obs.TelemetryPath != "" {
		obs.TelemetryEvery = telemetry.DefaultInterval
	}
	s := sim.New()
	// Attach order is load-bearing. The recorder and the registry go on
	// before the fabric and the deployment are built, because every layer
	// caches its span level and metric handles at construction; the
	// sampler starts after, so its first sample sees every family; the
	// doctor comes last, tapping the recorder and registering its own
	// metrics behind the deployment's.
	if obs.TraceCap > 0 {
		trace.Attach(s, trace.NewRecorder(trace.LevelFull, obs.TraceCap))
	}
	var reg *telemetry.Registry
	if obs.TelemetryEvery > 0 {
		reg = telemetry.NewRegistry()
		telemetry.Attach(s, reg)
	}
	fabric := netsim.NewFabric(s, cluster.Net)
	cfg := ncclsim.Config(o.System)
	cfg.Proxy.LabelSalt = o.Salt
	if o.Mutate != nil {
		o.Mutate(&cfg)
	}
	dep := mccsd.NewDeployment(s, cluster, fabric, cfg)
	env := &Env{S: s, Cluster: cluster, Fabric: fabric, Deployment: dep, obs: obs}
	if reg != nil {
		// Export the recorder's ring-wrap loss, so operators (and the
		// doctor) can see when span evidence is incomplete, and what the
		// observers themselves did: spans admitted, collector runs that
		// found something to publish, column values read by the sampler's
		// captures. Counts only — host time in an export would break
		// same-seed byte identity. The collector runs inside the sampler's
		// existing hook and mirrors plain counts, so it reports no work of
		// its own.
		rec := trace.Of(s)
		dropped := reg.Counter("mccs_trace_dropped_total", "spans")
		spans := reg.Counter("mccs_trace_spans_total", "spans")
		runs := reg.Counter("mccs_telemetry_collector_runs_total", "runs")
		copied := reg.Counter("mccs_telemetry_columns_copied_total", "columns")
		raise := func(c *telemetry.Counter, to int64) { c.Add(to - c.Value()) }
		reg.AddCollector(func(sim.Time) bool {
			raise(dropped, int64(rec.Dropped()))
			raise(spans, int64(rec.Dropped())+int64(rec.Len()))
			raise(runs, reg.CollectorRuns())
			raise(copied, env.Telemetry.ColumnsCopied())
			return false
		})
		env.Telemetry = telemetry.StartSampler(s, reg, obs.TelemetryEvery)
	}
	if doctor {
		env.Doctor = diagnosis.Attach(s, trace.Of(s), reg, diagnosis.DefaultConfig())
	}
	if envBuilt != nil {
		envBuilt(env)
	}
	return env, nil
}

// envBuilt, when set, is handed every environment NewEnv builds. It is a
// test seam: the driver tests reach the environment a driver builds and
// tears down inside one call through it.
var envBuilt func(*Env)

// Close tears the environment down; see Env. It releases, in order: the
// scheduler's parked processes (Shutdown), the deployment's device memory
// and its live communicators' idle message snapshots (Deployment.Close),
// and the flight recorder's chunks (trace.Recorder.Release), each into the
// deployment's scratch, which the next environment sharing it takes from.
func (e *Env) Close() {
	e.S.Shutdown()
	e.Deployment.Close()
	trace.Of(e.S).Release()
}

// Export writes every output path the environment's observers name, once
// the run is over. Flows still active are flushed into the recorder first
// (endless background flows would otherwise never appear in the trace or
// reach the doctor's final sweep), and the doctor is finalized last, so
// the trace file holds exactly what the doctor analyzed.
func (e *Env) Export() error {
	o := e.obs
	if o.TracePath != "" || o.DoctorPath != "" {
		e.Fabric.FlushTrace()
	}
	if o.TracePath != "" {
		rec := trace.Of(e.S).Snapshot()
		if err := writeFile(o.TracePath, func(w io.Writer) error { return trace.WriteChrome(w, rec) }); err != nil {
			return err
		}
	}
	if o.TelemetryPath != "" {
		write := func(w io.Writer) error { return telemetry.WriteJSONL(w, e.Telemetry) }
		if strings.HasSuffix(o.TelemetryPath, ".prom") {
			write = func(w io.Writer) error { return telemetry.WritePrometheus(w, e.Telemetry.Registry()) }
		}
		if err := writeFile(o.TelemetryPath, write); err != nil {
			return err
		}
	}
	if o.DoctorPath != "" {
		rep := e.Doctor.Finish()
		write := rep.WriteText
		if strings.HasSuffix(o.DoctorPath, ".jsonl") {
			write = rep.WriteJSONL
		}
		if err := writeFile(o.DoctorPath, write); err != nil {
			return err
		}
	}
	return nil
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// InterleavedHosts returns the testbed hosts in rack-interleaved order
// (rack0, rack1, rack0, rack1): the topology-oblivious node ordering a
// cloud tenant's launcher produces, which is what makes the NCCL
// baseline's rank-order ring zigzag across racks.
func InterleavedHosts(c *topo.Cluster) []topo.HostID {
	var rackHosts [][]topo.HostID
	for _, h := range c.Hosts {
		r := int(h.Rack)
		for len(rackHosts) <= r {
			rackHosts = append(rackHosts, nil)
		}
		rackHosts[r] = append(rackHosts[r], h.ID)
	}
	var out []topo.HostID
	for i := 0; ; i++ {
		progress := false
		for _, hs := range rackHosts {
			if i < len(hs) {
				out = append(out, hs[i])
				progress = true
			}
		}
		if !progress {
			return out
		}
	}
}

// SingleAppGPUs selects the GPUs for the paper's single-application
// setups in user-rank order: nGPUs = 4 takes one GPU per host, nGPUs = 8
// takes both, hosts rack-interleaved (see InterleavedHosts).
func SingleAppGPUs(c *topo.Cluster, nGPUs int) ([]topo.GPUID, error) {
	hosts := InterleavedHosts(c)
	perHost := nGPUs / len(hosts)
	if perHost < 1 || nGPUs%len(hosts) != 0 {
		return nil, fmt.Errorf("harness: %d GPUs over %d hosts", nGPUs, len(hosts))
	}
	var gpus []topo.GPUID
	for _, h := range hosts {
		if perHost > len(c.Hosts[h].GPUs) {
			return nil, fmt.Errorf("harness: host %d has %d GPUs, need %d", h, len(c.Hosts[h].GPUs), perHost)
		}
		gpus = append(gpus, c.Hosts[h].GPUs[:perHost]...)
	}
	return gpus, nil
}

// SingleAppConfig parameterizes a Fig. 6 run: one application, one
// collective, one size, one system.
type SingleAppConfig struct {
	System ncclsim.System
	Op     collective.Op
	// Bytes is the output-buffer size (the paper's x-axis).
	Bytes   int64
	NumGPUs int
	Warmup  int
	Iters   int
	// Trials repeats the whole experiment with different ECMP label
	// salts; samples pool across trials. Defaults to 1.
	Trials int
	// Seed offsets the trial salts.
	Seed uint64
	// Observers attach to the first trial (see Observers).
	Observers
	// Mutate edits the system's service config before each trial's
	// deployment is built — the ablation hook: cap slices or channels,
	// enable tree collectives, pin an explicit strategy.
	Mutate func(*mccsd.Config)
	// Autotune runs the strategy autotuner once after communicator
	// setup and installs the winning strategy before the measured loop
	// (the -autotune flag of mccs bench). Requires a service-mode
	// system: baseline (library) deployments refuse reconfiguration.
	Autotune bool
}

// SingleAppResult aggregates one Fig. 6 cell.
type SingleAppResult struct {
	// AlgBW summarizes per-iteration algorithm bandwidth in bytes/sec.
	AlgBW metrics.Summary
}

// RunSingleApp executes a single-application collective benchmark,
// pooling per-iteration bandwidth samples across Trials ECMP-salt trials.
func RunSingleApp(cfg SingleAppConfig) (SingleAppResult, error) {
	if cfg.Iters <= 0 {
		cfg.Iters = 10
	}
	if cfg.Trials <= 0 {
		cfg.Trials = 1
	}
	var algbw []float64
	for trial := 0; trial < cfg.Trials; trial++ {
		vals, err := runSingleTrial(cfg, trial)
		if err != nil {
			return SingleAppResult{}, err
		}
		algbw = append(algbw, vals...)
	}
	return SingleAppResult{AlgBW: metrics.Summarize(algbw)}, nil
}

// trialEnv builds the environment of one ECMP-salt trial of a multi-trial
// driver. Only trial 0 is observed: one recording is the artifact, later
// trials would overwrite it.
func trialEnv(o EnvOptions, trial int) (*Env, error) {
	o.Salt += uint64(trial) * 0x9e3779b97f4a7c15
	if trial > 0 {
		o.Observers = Observers{}
	}
	return NewEnv(o)
}

func runSingleTrial(cfg SingleAppConfig, trial int) ([]float64, error) {
	env, err := trialEnv(EnvOptions{System: cfg.System, Salt: cfg.Seed, Mutate: cfg.Mutate, Observers: cfg.Observers}, trial)
	if err != nil {
		return nil, err
	}
	defer env.Close()
	gpus, err := SingleAppGPUs(env.Cluster, cfg.NumGPUs)
	if err != nil {
		return nil, err
	}
	// Autotune: every rank checks in after communicator setup, the
	// controller scores and installs the winning strategy while the
	// datapath is idle, then the measured loops are released; the
	// achieved completion time is recorded when the last one ends.
	var ctrl *policy.Controller
	var id spec.CommID
	var tuneErr error
	iters := cfg.Warmup + cfg.Iters
	done := make([]sim.Time, 0, iters)
	rc := workload.RunConfig{
		Dep: env.Deployment, App: "bench", Key: "bench", GPUs: gpus,
		Trace: loopTrace(cfg.Op, cfg.Bytes, false), Iterations: iters,
		// One collective in flight: synchronizing per iteration is how
		// the paper's Fig. 6 benchmark observes the per-operation
		// datapath latency.
		Depth: 1,
		OnIteration: func(_ int, end sim.Time, _ time.Duration) {
			if done = append(done, end); len(done) == iters && ctrl != nil && tuneErr == nil {
				_, tuneErr = ctrl.ObserveAchieved(id, 0)
			}
		},
	}
	if cfg.Autotune {
		if env.Deployment.Config().Baseline {
			return nil, fmt.Errorf("harness: autotune requires a service-mode system")
		}
		ctrl = policy.NewController(env.Deployment)
		ready := sim.NewLatch(len(gpus))
		tuned := &sim.Event{}
		env.S.Go("tuner", func(p *sim.Proc) {
			ready.Wait(p)
			_, tuneErr = ctrl.Autotune(p, id, policy.AutotuneOptions{Op: cfg.Op, Bytes: cfg.Bytes})
			tuned.Signal(env.S)
		})
		rc.OnReady = func(p *sim.Proc, _ int, comm spec.CommID) {
			id = comm
			ready.Done(env.S)
			tuned.Wait(p)
		}
	}
	jobErr := firstErr(env.S, workload.Launch(rc))
	runErr := env.S.Run()
	if err := cmp.Or(*jobErr, tuneErr, runErr); err != nil {
		return nil, err
	}
	if err := env.Export(); err != nil {
		return nil, err
	}
	return gapBandwidth(done, cfg.Bytes, cfg.Warmup), nil
}

// manyIters is the iteration count of a job that runs until the
// experiment's horizon cuts it off.
const manyIters = 1 << 20

// loopTrace is a benchmark loop as a trace: one collective an iteration.
func loopTrace(op collective.Op, bytes int64, overlap bool) workload.Trace {
	return workload.Trace{Name: op.String(), Phases: []workload.Phase{
		{Kind: workload.Collective, Op: op, Bytes: bytes, Overlap: overlap},
	}}
}

// firstErr points at the first error among the jobs' results, in launch
// order, once the run is over.
func firstErr(s *sim.Scheduler, jobs ...*sim.Future[*workload.Result]) *error {
	var err error
	s.Go("jobs", func(p *sim.Proc) {
		for _, j := range jobs {
			if r := j.Wait(p); r.Err != nil && err == nil {
				err = fmt.Errorf("job %s: %w", r.App, r.Err)
			}
		}
	})
	return &err
}

// gapBandwidth converts completion timestamps into steady-state algorithm
// bandwidth samples: outputBytes divided by the gap between consecutive
// completions, skipping warmup iterations.
func gapBandwidth(done []sim.Time, outputBytes int64, warmup int) []float64 {
	var out []float64
	for i := warmup + 1; i < len(done); i++ {
		gap := done[i].Sub(done[i-1])
		if gap <= 0 {
			continue
		}
		out = append(out, collective.AlgBW(outputBytes, gap))
	}
	return out
}
