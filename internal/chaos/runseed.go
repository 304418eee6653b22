package chaos

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"os"
	"time"

	"mccs/internal/collective"
	"mccs/internal/diagnosis"
	"mccs/internal/freelist"
	"mccs/internal/gpusim"
	"mccs/internal/harness"
	"mccs/internal/mccsd"
	"mccs/internal/ncclsim"
	"mccs/internal/orchestrator"
	"mccs/internal/remediation"
	"mccs/internal/sim"
	"mccs/internal/spec"
	"mccs/internal/telemetry"
	"mccs/internal/topo"
	"mccs/internal/trace"
)

// deadline bounds a run in virtual time. The workloads finish in tens of
// milliseconds; hitting this means events were still being generated
// long after they should have drained (a livelock), which the quiescence
// checks then report.
const deadline = sim.Time(4 * time.Second)

// opSpec is one scripted collective: the op, its element count and the
// inputs of every rank, held once as bytes. in is rank-major (rank r's
// element j is in[r*count+j]), which is also the AllGather output every
// rank must hold. For AllReduce, sum is the closed-form output: the
// element-wise sum over ranks, at most 8 × 7 = 56, so it fits a byte.
type opSpec struct {
	op    collective.Op
	count int64
	in    []uint8
	sum   []uint8
}

// rankIn returns rank r's inputs.
func (o *opSpec) rankIn(r int) []uint8 { return o.in[int64(r)*o.count : int64(r+1)*o.count] }

// out is the closed-form output every rank's receive buffer must hold.
func (o *opSpec) out() []uint8 {
	if o.op == collective.AllReduce {
		return o.sum
	}
	return o.in
}

// buildOp draws the script's next op from the workload stream: its kind,
// its count, then every rank's inputs, rank-major. The script mixes
// AllReduce and AllGather with inputs in [0, 8) (sums of small ints are
// exact in float32, so reduction order — which the ring permutations
// change — cannot perturb the check).
//
// Each element is one Int63 draw: uint8(Int63()>>32) & 7 is rand.Intn(8)
// (for a power of two, Intn(n) is Int31() & (n-1), and Int31 is
// Int63 >> 32), so the stream is consumed exactly as the float32 tables
// this replaced consumed it and every schedule hash is unchanged.
//
// The tables come from store when it holds one that fits (every element
// of in is drawn over, and a recycled sum is cleared before it
// accumulates) and are allocated otherwise; releaseOps hands them back.
//
// A run draws its ops one at a time on its checker's producer goroutine;
// buildScript (script_test.go) is the whole-script form its tests pin.
func buildOp(sc Scenario, rng *rand.Rand, store *freelist.List[uint8]) opSpec {
	op := collective.AllReduce
	if rng.Intn(2) == 1 {
		op = collective.AllGather
	}
	count := 16 + rng.Int63n(sc.MaxCount-15)
	in := table(store, int64(sc.Ranks)*count)
	for k := range in {
		in[k] = uint8(rng.Int63()>>32) & 7
	}
	o := opSpec{op: op, count: count, in: in}
	if op == collective.AllReduce {
		o.sum = table(store, count)
		clear(o.sum)
		for r := 0; r < sc.Ranks; r++ {
			for j, v := range o.rankIn(r) {
				o.sum[j] += v
			}
		}
	}
	return o
}

// table returns a table of n bytes from store, or a new one when store
// has none that fits. A recycled table holds what its last op left in it.
func table(store *freelist.List[uint8], n int64) []uint8 {
	if t := store.Get(int(n)); t != nil {
		return t
	}
	return make([]uint8, n)
}

// releaseOps hands every table of ops to store and drops them from ops.
// Nothing may read the tables afterwards.
func releaseOps(ops []opSpec, store *freelist.List[uint8]) {
	for i := range ops {
		store.Put(ops[i].in)
		store.Put(ops[i].sum)
		ops[i].in, ops[i].sum = nil, nil
	}
}

// randStream derives one of a seed's independent PRNG streams.
func randStream(seed, mult uint64, salt int64) *rand.Rand {
	return rand.New(rand.NewSource(int64(seed*mult) + salt))
}

// fuzzPicker permutes same-instant scheduler events with a dedicated
// PRNG stream.
type fuzzPicker struct{ rng *rand.Rand }

func (f *fuzzPicker) Pick(n int) int { return f.rng.Intn(n) }

// runOpts selects the optional observers/controllers a run attaches.
type runOpts struct {
	// doctor attaches the diagnosis engine live.
	doctor bool
	// heal attaches the self-healing remediation engine (implies doctor:
	// the control loop subscribes to its verdicts) and draws the fault
	// plan from the dedicated heal PRNG stream instead of inj, so the
	// self-heal fault corpus is independent of the link-flap corpus.
	heal    bool
	healCfg remediation.Config
	// tamper, when set, is the run's checker.tamper: the probe that
	// proves a corrupted result fails the run.
	tamper  func(rank, idx int, recv, send []float32)
	scratch *runScratch // replaces the package's when set: a fresh one is a cold run
}

// runScratch is the memory a run keeps for the next run sharing it: its
// deployment's (device backings, recorder chunks, message snapshots) and
// its script's input and sum tables. The zero value is empty and safe for
// concurrent runs.
type runScratch struct {
	dep    mccsd.Scratch
	script freelist.List[uint8]
}

// scratch is the one runScratch of the runs the package makes in a row.
var scratch runScratch

// RunSeed executes one seeded chaos run and checks every invariant.
// The same (scenario, seed) pair always produces the identical event
// trace, so any failure replays exactly.
func RunSeed(sc Scenario, seed uint64) Result {
	res, _ := runSeed(sc, seed, runOpts{})
	return res
}

// DoctorRun couples a chaos Result with the output of a live-attached
// diagnosis engine. Recording is the run's final span snapshot, which
// the ground-truth tests use to decide which injected fault windows were
// observable.
type DoctorRun struct {
	Result
	Report    *diagnosis.Report
	Recording trace.Recording
	// Remediation and Telemetry (the final Prometheus-format registry
	// export) are set only on RunSeedHealed runs.
	Remediation *remediation.Report
	Telemetry   []byte
}

// RunSeedDiagnosed is RunSeed with the diagnosis engine attached live
// (recorder tap + end-of-instant sweeps). The engine schedules no
// events, so the run's trace hash is identical to RunSeed's — the
// neutrality test pins that against the corpus hashes.
func RunSeedDiagnosed(sc Scenario, seed uint64) DoctorRun {
	res, dr := runSeed(sc, seed, runOpts{doctor: true})
	dr.Result = res
	return *dr
}

// HealRun couples a chaos Result with the reports of the live-attached
// diagnosis and remediation engines.
type HealRun struct {
	Result
	Doctor      *diagnosis.Report
	Remediation *remediation.Report
	Recording   trace.Recording
	// Telemetry is the final Prometheus-format registry export, for the
	// byte-determinism acceptance check.
	Telemetry []byte
}

// RunSeedHealed is RunSeed with the full self-healing loop attached:
// the diagnosis engine taps the flight recorder, and the remediation
// engine subscribes to its verdicts and to link health, driving
// recovery while the faults play out. The fault plan is drawn from the
// dedicated heal PRNG stream.
func RunSeedHealed(sc Scenario, seed uint64) HealRun {
	return RunSeedHealedConfig(sc, seed, remediation.DefaultConfig())
}

// RunSeedHealedConfig is RunSeedHealed with explicit control-loop
// tuning (the flapping-link backoff tests shrink MaxActions).
func RunSeedHealedConfig(sc Scenario, seed uint64, cfg remediation.Config) HealRun {
	res, dr := runSeed(sc, seed, runOpts{doctor: true, heal: true, healCfg: cfg})
	return HealRun{Result: res, Doctor: dr.Report, Recording: dr.Recording,
		Remediation: dr.Remediation, Telemetry: dr.Telemetry}
}

func runSeed(sc Scenario, seed uint64, opts runOpts) (Result, *DoctorRun) {
	res := Result{Scenario: sc.Name, Seed: seed}

	// Independent PRNG streams: workload script, schedule fuzzing, fault
	// injection, autotuner passes. Distinct odd multipliers keep
	// consecutive seeds from producing correlated streams, and a separate
	// tuner stream keeps existing scenarios' fault plans stable now that
	// autotuning is a dimension.
	wrk := randStream(seed, 0x9e3779b97f4a7c15, 1)
	sched := randStream(seed, 0xbf58476d1ce4e5b9, 2)
	inj := randStream(seed, 0x94d049bb133111eb, 3)
	tune := randStream(seed, 0x2545f4914f6cdd1d, 4)
	// The churn stream is drawn only by scenarios with Churn > 0, so the
	// existing corpus replays byte-identically; likewise the heal stream
	// is drawn only by self-heal runs, which use it in place of inj so
	// their fault plans are independent of the link-flap corpus.
	churn := randStream(seed, 0xd6e8feb86659fd93, 5)
	if opts.heal {
		inj = randStream(seed, 0xda942042e4dd58b5, 6)
	}

	mem := cmp.Or(opts.scratch, &scratch)
	chk := startChecker(sc, wrk, &mem.script)
	chk.tamper = opts.tamper
	// One teardown for every return path, in this order: the verifier
	// reads finished device buffers and the script until join returns,
	// Close hands the buffers' memory to the next deployment, and the
	// script's tables go back last, once no rank can read them either.
	// Everything returned is copied out first; see harness.Env.
	var env *harness.Env
	defer func() {
		chk.join()
		if env != nil {
			env.Close()
		}
		releaseOps(chk.ops, &mem.script)
	}()

	// The diagnosis engine taps the recorder from the start, so it sees
	// every span; it schedules no events and consumes no PRNG draws, so
	// the fuzzed schedule is untouched.
	env, err := harness.NewEnv(harness.EnvOptions{
		System: ncclsim.MCCS, Salt: seed,
		Mutate: func(c *mccsd.Config) {
			c.Proxy.UnsafeSkipSeqBarrier = sc.SkipSeqBarrier
			c.Scratch = &mem.dep
		},
		Observers: harness.Observers{TraceCap: chaosTraceCap, TelemetryEvery: chaosTelemetryEvery, Doctor: opts.doctor},
	})
	if err != nil {
		res.Err = fmt.Errorf("chaos: building testbed: %w", err)
		return res, &DoctorRun{}
	}
	rec := trace.Of(env.S)
	env.S.SetPicker(&fuzzPicker{rng: sched})
	tr := newTracer()
	env.S.SetEventObserver(tr.observe)

	gpus, err := harness.SingleAppGPUs(env.Cluster, sc.Ranks)
	if err != nil {
		res.Err = fmt.Errorf("chaos: selecting GPUs: %w", err)
		return res, &DoctorRun{}
	}

	rankErrs := make([]error, sc.Ranks)
	finished := 0
	var scriptComm spec.CommID
	for rank := 0; rank < sc.Ranks; rank++ {
		rank := rank
		gpu := gpus[rank]
		env.S.Go(fmt.Sprintf("chaos:rank%d", rank), func(p *sim.Proc) {
			rankErrs[rank] = runRank(p, env, sc, chk, rank, gpu, &scriptComm)
			finished++
		})
	}

	// The remediation engine also attaches pre-fault (it snapshots
	// nominal link capacities); its daemon stops on a fixed virtual-time
	// event past the fault horizon so quarantined links can finish
	// probation and re-admit before the run drains.
	var heal *remediation.Engine
	if opts.heal {
		heal = remediation.Attach(env.S, env.Deployment, env.Controller(), env.Doctor, opts.healCfg)
		stop := &sim.Event{}
		heal.Start(stop)
		env.S.At(sim.Time(sc.Horizon+sc.Horizon/2), func() { stop.Signal(env.S) })
	}

	fl := &faultLog{}
	congest := installInjectors(env, sc, inj, tune, gpus, fl)

	var orch *orchestrator.Orchestrator
	var churnJobs []*orchestrator.Job
	if sc.Churn > 0 {
		orch, churnJobs = installChurn(env, sc, churn)
	}

	simErr := runSim(env.S)
	// A rank's own errors (init, alloc, issue) stop it before it issues
	// the failing op, so any op the verifier failed comes earlier: the
	// verifier's failure, when there is one, is the rank's lowest.
	for r, f := range chk.join() {
		if f.err != nil {
			rankErrs[r] = f.err
		}
	}

	// Fill in the trace fingerprint before invariant checks so even a
	// failed run reports its replay coordinates.
	res.TraceHash, res.Events = tr.hash, tr.n
	res.Tail = tr.lastEvents()
	fl.addRemediations(congest)
	res.Faults = fl.recs

	res.Err = checkInvariants(env, sc, simErr, rankErrs, finished, scriptComm, orch, churnJobs)
	if res.Err != nil {
		res.DumpPath = dumpTrace(env, rec, sc, seed)
	}
	dr := &DoctorRun{}
	if opts.doctor {
		env.Fabric.FlushTrace() // emit any still-running flows before the final snapshot
		dr.Report = env.Doctor.Finish()
		dr.Recording = rec.Snapshot()
	}
	if opts.heal {
		dr.Remediation = heal.Finish()
		var buf bytes.Buffer
		if err := telemetry.WritePrometheus(&buf, telemetry.Of(env.S)); err == nil {
			dr.Telemetry = buf.Bytes()
		}
	}
	return res, dr
}

// chaosTraceCap bounds the per-seed flight-recorder ring. Chaos
// workloads are small (a thousand spans or so, a few thousand at most),
// so the bound is a ceiling on what a runaway seed can hold, not a cost:
// the ring takes its storage a chunk at a time as spans arrive, from the
// chunks an earlier run's Env.Close released when there are any. It is a
// whole number of chunks, so every chunk a run fills goes back for the
// next run.
const chaosTraceCap = 1 << 15

// chaosTelemetryEvery is the per-seed telemetry sampling interval. The
// workloads span milliseconds of virtual time, so a fine interval gives
// every seed enough samples for the monotonicity/finiteness invariant
// to bite. The sampler adds no scheduler events, so the fuzzed schedule
// (and hence the replay fingerprint) is identical with and without it.
const chaosTelemetryEvery = 200 * time.Microsecond

// dumpTrace writes the failing run's full span recording to a temp file
// as Chrome trace-event JSON and returns its path ("" if the dump itself
// failed — the replay coordinates in Result still identify the run).
func dumpTrace(env *harness.Env, rec *trace.Recorder, sc Scenario, seed uint64) string {
	if rec == nil {
		return ""
	}
	env.Fabric.FlushTrace()
	f, err := os.CreateTemp("", fmt.Sprintf("mccs-chaos-%s-seed%x-*.trace.json", sc.Name, seed))
	if err != nil {
		return ""
	}
	if err := trace.WriteChrome(f, rec.Snapshot()); err != nil {
		f.Close()
		os.Remove(f.Name())
		return ""
	}
	if err := f.Close(); err != nil {
		return ""
	}
	return f.Name()
}

type pendingOp struct {
	h          *mccsd.OpHandle
	idx        int
	send, recv *gpusim.Buffer
}

// runRank issues the scripted collectives for one rank with a bounded
// pipeline: before it issues op i+Depth it waits for op i and hands op i's
// buffers to the checker's verifier, which checks them against the closed
// form off the event loop. A rank issues its whole script whatever the
// verifier finds; its error is its own (init, alloc or issue).
func runRank(p *sim.Proc, env *harness.Env, sc Scenario, chk *checker, rank int, gpu topo.GPUID, scriptComm *spec.CommID) error {
	host := env.Cluster.HostOfGPU(gpu)
	f := env.Deployment.Service(host).Frontend("chaos")
	comm, err := f.CommInitRank(p, "chaos", sc.Ranks, rank, gpu)
	if err != nil {
		return fmt.Errorf("rank %d: init: %w", rank, err)
	}
	if rank == 0 {
		// The ledger's exact-count invariant is scoped to this
		// communicator; churn tenants' collectives are checked for
		// agreement only (their op counts vary by scenario draw).
		*scriptComm = comm.ID()
	}

	finish := func(po pendingOp) {
		po.h.Wait(p)
		chk.hand(rank, po.idx, po.recv.Data(), po.send.Data())
	}

	var pending []pendingOp
	for i := 0; i < sc.Ops; i++ {
		op, err := chk.op(i)
		if err != nil {
			return fmt.Errorf("rank %d op %d: script: %w", rank, i, err)
		}
		send, err := f.MemAlloc(p, gpu, op.count*4, true)
		if err != nil {
			return fmt.Errorf("rank %d op %d: alloc send: %w", rank, i, err)
		}
		recvBytes := op.count * 4
		if op.op == collective.AllGather {
			recvBytes *= int64(sc.Ranks)
		}
		recv, err := f.MemAlloc(p, gpu, recvBytes, true)
		if err != nil {
			return fmt.Errorf("rank %d op %d: alloc recv: %w", rank, i, err)
		}
		data := send.Data()
		for j, v := range op.rankIn(rank) {
			data[j] = float32(v)
		}

		var h *mccsd.OpHandle
		switch op.op {
		case collective.AllGather:
			h, err = comm.AllGather(p, send, recv, op.count, nil)
		default:
			h, err = comm.AllReduce(p, send, recv, op.count, nil)
		}
		if err != nil {
			return fmt.Errorf("rank %d op %d: issue: %w", rank, i, err)
		}
		pending = append(pending, pendingOp{h: h, idx: i, send: send, recv: recv})
		if len(pending) >= sc.Depth {
			finish(pending[0])
			pending = pending[1:]
		}
	}
	for _, po := range pending {
		finish(po)
	}
	return nil
}

// runSim drives the scheduler to drain (or the livelock deadline),
// converting panics — e.g. a weakened protocol sending on a torn-down
// connection — into errors so the sweep records them per seed.
func runSim(s *sim.Scheduler) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic in simulation: %v", r)
		}
	}()
	if err := s.RunUntil(deadline); err != nil {
		return err
	}
	if s.Now() >= deadline {
		return fmt.Errorf("livelock: events still pending at virtual deadline %v", time.Duration(deadline))
	}
	return nil
}
