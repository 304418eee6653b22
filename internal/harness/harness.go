// Package harness drives the paper's testbed experiments end to end: it
// builds a cluster + fabric + deployment for one of the four evaluated
// systems, launches tenant rank processes, runs measured collective loops
// and aggregates bandwidth statistics. The cmd/ tools, the root-level
// benchmarks and the integration tests all share these drivers.
package harness

import (
	"fmt"
	"os"
	"strings"
	"time"

	"mccs/internal/collective"
	"mccs/internal/diagnosis"
	"mccs/internal/gpusim"
	"mccs/internal/mccsd"
	"mccs/internal/metrics"
	"mccs/internal/ncclsim"
	"mccs/internal/netsim"
	"mccs/internal/policy"
	"mccs/internal/remediation"
	"mccs/internal/sim"
	"mccs/internal/spec"
	"mccs/internal/telemetry"
	"mccs/internal/topo"
	"mccs/internal/trace"
)

// Env is one experiment environment.
//
// Whoever builds one calls S.Shutdown once it has copied the results out
// (the Run* drivers defer it): the deployment's service loops are daemons
// parked forever, and each parked goroutine keeps the whole environment —
// trace ring, telemetry samples, fabric — reachable until it is unwound.
type Env struct {
	S          *sim.Scheduler
	Cluster    *topo.Cluster
	Fabric     *netsim.Fabric
	Deployment *mccsd.Deployment
	// Telemetry is the sim-time sampler when the env was built with a
	// telemetry interval; nil otherwise.
	Telemetry *telemetry.Sampler
}

// NewTestbedEnv builds the paper's 4-host testbed under the given system.
func NewTestbedEnv(system ncclsim.System) (*Env, error) {
	return NewTestbedEnvSalted(system, 0)
}

// NewTestbedEnvSalted is NewTestbedEnv with an ECMP label salt, letting
// repeated trials sample the ECMP collision distribution (the paper's
// shaded percentile bands come from exactly this variance).
func NewTestbedEnvSalted(system ncclsim.System, salt uint64) (*Env, error) {
	return newTestbedEnv(system, salt, nil, 0)
}

// NewTestbedEnvWith is NewTestbedEnvSalted plus a service-config mutation
// hook applied before the deployment is built. The chaos harness uses it
// to install exec observers and protocol weakenings; ablation drivers use
// it to override individual cost-model knobs.
func NewTestbedEnvWith(system ncclsim.System, salt uint64, mutate func(*mccsd.Config)) (*Env, error) {
	return newTestbedEnv(system, salt, mutate, 0)
}

// NewTestbedEnvTraced is NewTestbedEnvWith with a full-detail flight
// recorder (ring of traceCap spans; <= 0 selects trace.DefaultCapacity)
// attached before the deployment is built, so every layer's spans — not
// just op lifecycles — are captured. The chaos harness uses it to dump
// the complete schedule of a failing seed.
func NewTestbedEnvTraced(system ncclsim.System, salt uint64, traceCap int, mutate func(*mccsd.Config)) (*Env, *trace.Recorder, error) {
	if traceCap <= 0 {
		traceCap = trace.DefaultCapacity
	}
	env, err := newTestbedEnvFull(system, salt, mutate, traceCap, 0)
	if err != nil {
		return nil, nil, err
	}
	return env, trace.Of(env.S), nil
}

// NewTestbedEnvInstrumented is NewTestbedEnvTraced plus a telemetry
// registry and sampler (telemetryEvery <= 0 selects
// telemetry.DefaultInterval). The chaos harness uses it to cross-check
// the metrics plane against its invariants on every seed.
func NewTestbedEnvInstrumented(system ncclsim.System, salt uint64, traceCap int, telemetryEvery time.Duration, mutate func(*mccsd.Config)) (*Env, error) {
	if telemetryEvery <= 0 {
		telemetryEvery = telemetry.DefaultInterval
	}
	return newTestbedEnvFull(system, salt, mutate, traceCap, telemetryEvery)
}

func newTestbedEnv(system ncclsim.System, salt uint64, mutate func(*mccsd.Config), traceCap int) (*Env, error) {
	return newTestbedEnvFull(system, salt, mutate, traceCap, 0)
}

func newTestbedEnvFull(system ncclsim.System, salt uint64, mutate func(*mccsd.Config), traceCap int, telemetryEvery time.Duration) (*Env, error) {
	cluster, err := topo.BuildClos(topo.TestbedConfig())
	if err != nil {
		return nil, err
	}
	s := sim.New()
	if traceCap > 0 {
		trace.Attach(s, trace.NewRecorder(trace.LevelFull, traceCap))
	}
	// The registry must attach before the fabric and deployment are
	// built: every layer caches its metric handles at construction.
	var reg *telemetry.Registry
	if telemetryEvery > 0 {
		reg = telemetry.NewRegistry()
		telemetry.Attach(s, reg)
	}
	fabric := netsim.NewFabric(s, cluster.Net)
	cfg := ncclsim.Config(system)
	cfg.Proxy.LabelSalt = salt
	if mutate != nil {
		mutate(&cfg)
	}
	dep := mccsd.NewDeployment(s, cluster, fabric, cfg)
	env := &Env{S: s, Cluster: cluster, Fabric: fabric, Deployment: dep}
	if reg != nil {
		registerTraceDropped(s, reg)
		env.Telemetry = telemetry.StartSampler(s, reg, telemetryEvery)
	}
	return env, nil
}

// registerTraceDropped exports the flight recorder's ring-wrap loss as
// mccs_trace_dropped_total so operators (and the doctor) can see when
// span evidence is incomplete. The collector runs inside the sampler's
// existing event, so the simulated schedule is untouched. No-op when
// either plane is missing.
func registerTraceDropped(s *sim.Scheduler, reg *telemetry.Registry) {
	rec := trace.Of(s)
	if rec == nil || reg == nil {
		return
	}
	dropped := reg.Counter("mccs_trace_dropped_total", "spans")
	reg.AddCollector(func(sim.Time) {
		if d := int64(rec.Dropped()); d > dropped.Value() {
			dropped.Add(d - dropped.Value())
		}
	})
}

// WriteTraceFile flushes still-active flows into the scheduler's flight
// recorder and exports the recording as Chrome trace-event JSON at path.
// Harness drivers call it at experiment end when a -trace flag is set.
func WriteTraceFile(path string, s *sim.Scheduler, fabric *netsim.Fabric) error {
	rec := trace.Of(s)
	if rec == nil {
		return fmt.Errorf("harness: no trace recorder attached")
	}
	if fabric != nil {
		fabric.FlushTrace()
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChrome(f, rec.Snapshot()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// AttachDoctor attaches the online diagnosis engine to a scheduler whose
// flight recorder is already on, wiring in the telemetry registry when
// one is attached. Harness drivers call it before the run starts when a
// -doctor flag is set; the engine schedules no events, so the run is
// byte-identical with or without it.
func AttachDoctor(s *sim.Scheduler) (*diagnosis.Engine, error) {
	rec := trace.Of(s)
	if rec == nil {
		return nil, fmt.Errorf("harness: doctor needs a trace recorder attached")
	}
	return diagnosis.Attach(s, rec, telemetry.Of(s), diagnosis.DefaultConfig()), nil
}

// WriteDoctorFile finalizes a live-attached diagnosis engine and writes
// its report at path: incident JSONL when the path ends in ".jsonl", the
// human-readable timeline otherwise. Still-active flows are flushed into
// the recorder first so the final sweep sees their rate evidence.
func WriteDoctorFile(path string, eng *diagnosis.Engine, fabric *netsim.Fabric) error {
	if eng == nil {
		return fmt.Errorf("harness: no diagnosis engine attached")
	}
	if fabric != nil {
		fabric.FlushTrace()
	}
	rep := eng.Finish()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".jsonl") {
		err = rep.WriteJSONL(f)
	} else {
		err = rep.WriteText(f)
	}
	if err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// AttachRemediation attaches the self-healing control loop to an
// environment that already has a diagnosis engine: the remediation
// engine subscribes to the doctor's verdicts, scans link health on its
// own tick, and drives recovery through the policy controller. The
// caller owns the daemon's lifetime via Start/stop and collects the
// event log with WriteRemediationFile.
func AttachRemediation(env *Env, eng *diagnosis.Engine, cfg remediation.Config) (*remediation.Engine, error) {
	if eng == nil {
		return nil, fmt.Errorf("harness: remediation needs a diagnosis engine attached")
	}
	if trace.Of(env.S) == nil {
		return nil, fmt.Errorf("harness: remediation needs a trace recorder attached")
	}
	return remediation.Attach(env.S, env.Deployment, eng, cfg), nil
}

// WriteRemediationFile finalizes a live remediation engine and writes
// its event log at path: JSONL when the path ends in ".jsonl", the
// operator-facing text report otherwise.
func WriteRemediationFile(path string, eng *remediation.Engine) error {
	if eng == nil {
		return fmt.Errorf("harness: no remediation engine attached")
	}
	rep := eng.Finish()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".jsonl") {
		err = rep.WriteJSONL(f)
	} else {
		err = rep.WriteText(f)
	}
	if err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteTelemetryFile exports a sampler's series at path: JSONL by
// default, Prometheus text exposition when path ends in ".prom".
// Harness drivers call it at experiment end when -telemetry is set.
func WriteTelemetryFile(path string, sm *telemetry.Sampler) error {
	if sm == nil {
		return fmt.Errorf("harness: no telemetry sampler attached")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".prom") {
		err = telemetry.WritePrometheus(f, sm.Registry())
	} else {
		err = telemetry.WriteJSONL(f, sm)
	}
	if err != nil {
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
	// Pipeline is the number of collectives kept in flight. The default
	// (1) synchronizes per iteration, which is how the paper's Fig. 6
	// benchmark observes the per-operation datapath latency; deeper
	// pipelining overlaps command latency with execution.
	Pipeline int
	// TracePath, when set, records the first trial at full detail and
	// writes Chrome trace-event JSON there (view in Perfetto or dump
	// with cmd/mccs-trace). Later trials run untraced.
	TracePath string
	// TelemetryPath, when set, samples the metrics registry during the
	// first trial and writes the series there (JSONL by default, ".prom"
	// selects Prometheus text). Later trials run uninstrumented.
	TelemetryPath string
	// TelemetryEvery overrides the sampling interval
	// (telemetry.DefaultInterval when zero).
	TelemetryEvery time.Duration
	// DoctorPath, when set, attaches the online diagnosis engine to the
	// first trial and writes its health report there (incident JSONL when
	// the path ends in ".jsonl", text timeline otherwise). Implies trace
	// recording for that trial; later trials run undoctored.
	DoctorPath string
	// Autotune runs the strategy autotuner once after communicator
	// setup and installs the winning strategy before the measured loop
	// (the -autotune flag of mccs-bench). Requires a service-mode
	// system: baseline (library) deployments refuse reconfiguration.
	Autotune bool
}

// SingleAppResult aggregates one Fig. 6 cell.
type SingleAppResult struct {
	Config SingleAppConfig
	// AlgBW and BusBW summarize per-iteration bandwidth in bytes/sec.
	AlgBW metrics.Summary
	BusBW metrics.Summary
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
	if cfg.Pipeline <= 0 {
		cfg.Pipeline = 1
	}
	var algbw []float64
	for trial := 0; trial < cfg.Trials; trial++ {
		tcfg := cfg
		if trial > 0 {
			tcfg.TracePath = ""
			tcfg.TelemetryPath = ""
			tcfg.DoctorPath = ""
		}
		vals, err := runSingleTrial(tcfg, cfg.Seed+uint64(trial)*0x9e3779b97f4a7c15)
		if err != nil {
			return SingleAppResult{}, err
		}
		algbw = append(algbw, vals...)
	}
	n := cfg.NumGPUs
	factor := collective.BusBWFactor(cfg.Op, n)
	busbw := make([]float64, len(algbw))
	for i, v := range algbw {
		busbw[i] = v * factor
	}
	return SingleAppResult{
		Config: cfg,
		AlgBW:  metrics.Summarize(algbw),
		BusBW:  metrics.Summarize(busbw),
	}, nil
}

// RunSingleAppWithSlices is RunSingleApp with the proxy's intra-step
// slice pipelining overridden (1 = one monolithic chunk per ring step).
// It is the ablation knob for the slice-pipelining design decision.
func RunSingleAppWithSlices(cfg SingleAppConfig, maxSlices int) (SingleAppResult, error) {
	return runSingleMutated(cfg, func(c *mccsd.Config) {
		c.Proxy.MaxSlices = maxSlices
	})
}

// RunSingleAppWithChannels is RunSingleApp with the MCCS strategy's ring
// count capped — the multi-ring (NIC striping) ablation.
func RunSingleAppWithChannels(cfg SingleAppConfig, channels int) (SingleAppResult, error) {
	return runSingleMutated(cfg, func(c *mccsd.Config) {
		c.Strategy = policy.OptimalRingStrategy(policy.RingStrategyOptions{
			MaxChannels: channels, PinRoutes: true,
		})
	})
}

// RunSingleAppWithTree is RunSingleApp with binomial-tree collectives
// enabled below treeThreshold output bytes — the tree-vs-ring ablation.
func RunSingleAppWithTree(cfg SingleAppConfig, treeThreshold int64) (SingleAppResult, error) {
	return runSingleMutated(cfg, func(c *mccsd.Config) {
		c.Strategy = policy.OptimalRingStrategy(policy.RingStrategyOptions{
			PinRoutes: true, TreeThreshold: treeThreshold,
		})
	})
}

// RunSingleAppWithStrategy is RunSingleApp with every communicator pinned
// to an explicit strategy — the harness hook the tuner's golden tests use
// to measure each candidate exactly as the model scored it.
func RunSingleAppWithStrategy(cfg SingleAppConfig, st spec.Strategy) (SingleAppResult, error) {
	return runSingleMutated(cfg, func(c *mccsd.Config) {
		c.Strategy = func(*topo.Cluster, *spec.CommInfo) spec.Strategy {
			return st.Clone()
		}
	})
}

func runSingleMutated(cfg SingleAppConfig, mutate func(*mccsd.Config)) (SingleAppResult, error) {
	if cfg.Iters <= 0 {
		cfg.Iters = 10
	}
	if cfg.Trials <= 0 {
		cfg.Trials = 1
	}
	if cfg.Pipeline <= 0 {
		cfg.Pipeline = 1
	}
	var algbw []float64
	for trial := 0; trial < cfg.Trials; trial++ {
		tcfg := cfg
		if trial > 0 {
			tcfg.TracePath = ""
			tcfg.TelemetryPath = ""
			tcfg.DoctorPath = ""
		}
		vals, err := runSingleTrialMutated(tcfg, cfg.Seed+uint64(trial)*0x9e3779b97f4a7c15, mutate)
		if err != nil {
			return SingleAppResult{}, err
		}
		algbw = append(algbw, vals...)
	}
	factor := collective.BusBWFactor(cfg.Op, cfg.NumGPUs)
	busbw := make([]float64, len(algbw))
	for i, v := range algbw {
		busbw[i] = v * factor
	}
	return SingleAppResult{
		Config: cfg,
		AlgBW:  metrics.Summarize(algbw),
		BusBW:  metrics.Summarize(busbw),
	}, nil
}

func runSingleTrial(cfg SingleAppConfig, salt uint64) ([]float64, error) {
	return runSingleTrialMutated(cfg, salt, nil)
}

func runSingleTrialMutated(cfg SingleAppConfig, salt uint64, mutate func(*mccsd.Config)) ([]float64, error) {
	traceCap := 0
	if cfg.TracePath != "" || cfg.DoctorPath != "" {
		traceCap = trace.DefaultCapacity
	}
	telemetryEvery := time.Duration(0)
	if cfg.TelemetryPath != "" {
		telemetryEvery = cfg.TelemetryEvery
		if telemetryEvery <= 0 {
			telemetryEvery = telemetry.DefaultInterval
		}
	}
	env, err := newTestbedEnvFull(cfg.System, salt, mutate, traceCap, telemetryEvery)
	if err != nil {
		return nil, err
	}
	defer env.S.Shutdown()
	var doctor *diagnosis.Engine
	if cfg.DoctorPath != "" {
		if doctor, err = AttachDoctor(env.S); err != nil {
			return nil, err
		}
	}
	gpus, err := SingleAppGPUs(env.Cluster, cfg.NumGPUs)
	if err != nil {
		return nil, err
	}
	n := len(gpus)
	count := cfg.Bytes / 4
	perRank := count
	if cfg.Op == collective.AllGather {
		perRank = count / int64(n)
		if perRank < 1 {
			return nil, fmt.Errorf("harness: %d bytes too small for %d-rank AllGather", cfg.Bytes, n)
		}
	}
	var algbw []float64
	errs := make([]error, n)

	// Autotune: every rank checks in after communicator setup, the
	// controller scores and installs the winning strategy while the
	// datapath is idle, then the measured loops are released.
	var ctrl *policy.Controller
	var ready *sim.Latch
	tuned := &sim.Event{}
	var tuneErr error
	if cfg.Autotune {
		if env.Deployment.Config().Baseline {
			return nil, fmt.Errorf("harness: autotune requires a service-mode system")
		}
		ctrl = policy.NewController(env.Deployment)
		ready = sim.NewLatch(n)
		env.S.Go("tuner", func(p *sim.Proc) {
			ready.Wait(p)
			view := env.Deployment.View()
			if len(view) == 0 {
				tuneErr = fmt.Errorf("harness: no communicator to autotune")
			} else if _, err := ctrl.Autotune(p, view[0].ID, policy.AutotuneOptions{
				Op: cfg.Op, Bytes: cfg.Bytes,
			}); err != nil {
				tuneErr = err
			}
			tuned.Signal(env.S)
		})
	}

	for rank, gpu := range gpus {
		rank, gpu := rank, gpu
		host := env.Cluster.HostOfGPU(gpu)
		env.S.Go(fmt.Sprintf("app:rank%d", rank), func(p *sim.Proc) {
			f := env.Deployment.Service(host).Frontend("bench")
			var send, recv *gpusim.Buffer
			var err error
			if cfg.Op == collective.AllGather {
				if send, err = f.MemAlloc(p, gpu, perRank*4, false); err != nil {
					errs[rank] = err
					return
				}
				if recv, err = f.MemAlloc(p, gpu, perRank*4*int64(n), false); err != nil {
					errs[rank] = err
					return
				}
			} else {
				if recv, err = f.MemAlloc(p, gpu, perRank*4, false); err != nil {
					errs[rank] = err
					return
				}
			}
			comm, err := f.CommInitRank(p, "bench", n, rank, gpu)
			if err != nil {
				errs[rank] = err
				return
			}
			if cfg.Autotune {
				ready.Done(env.S)
				tuned.Wait(p)
				if tuneErr != nil {
					return
				}
			}
			issue := func() (*mccsd.OpHandle, error) {
				switch cfg.Op {
				case collective.AllGather:
					return comm.AllGather(p, send, recv, perRank, nil)
				case collective.AllReduce:
					return comm.AllReduce(p, nil, recv, perRank, nil)
				default:
					return nil, fmt.Errorf("harness: unsupported single-app op %v", cfg.Op)
				}
			}
			done, err := pipelinedLoop(p, issue, cfg.Warmup+cfg.Iters, cfg.Pipeline)
			if err != nil {
				errs[rank] = err
				return
			}
			if rank == 0 {
				algbw = append(algbw, gapBandwidth(done, cfg.Bytes, cfg.Warmup)...)
				if ctrl != nil {
					if _, err := ctrl.ObserveAchieved(comm.ID(), 0); err != nil {
						errs[rank] = err
					}
				}
			}
		})
	}
	if err := env.S.Run(); err != nil {
		return nil, err
	}
	if tuneErr != nil {
		return nil, tuneErr
	}
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}
	if cfg.TracePath != "" {
		if err := WriteTraceFile(cfg.TracePath, env.S, env.Fabric); err != nil {
			return nil, err
		}
	}
	if cfg.TelemetryPath != "" {
		if err := WriteTelemetryFile(cfg.TelemetryPath, env.Telemetry); err != nil {
			return nil, err
		}
	}
	if cfg.DoctorPath != "" {
		if err := WriteDoctorFile(cfg.DoctorPath, doctor, env.Fabric); err != nil {
			return nil, err
		}
	}
	return algbw, nil
}

// pipelinedLoop issues total collectives keeping up to depth in flight
// (nccl-tests style) and returns each op's tenant-observed completion time.
func pipelinedLoop(p *sim.Proc, issue func() (*mccsd.OpHandle, error), total, depth int) ([]sim.Time, error) {
	if depth <= 0 {
		depth = 1
	}
	var pending []*mccsd.OpHandle
	done := make([]sim.Time, 0, total)
	for it := 0; it < total; it++ {
		h, err := issue()
		if err != nil {
			return nil, err
		}
		pending = append(pending, h)
		if len(pending) >= depth {
			done = append(done, pending[0].Wait(p).Done)
			pending = pending[1:]
		}
	}
	for _, h := range pending {
		done = append(done, h.Wait(p).Done)
	}
	return done, nil
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

var _ = spec.RouteECMP // referenced by sibling files
