// Package orchestrator is the cluster-level tenant lifecycle subsystem:
// the component that plays the cloud provider over the MCCS service.
//
// It consumes a stream of job specs (tenant, GPU count, workload trace,
// priority, arrival time, iteration budget) and, in virtual time,
//
//   - admission-controls arrivals against per-tenant GPU quotas with a
//     deterministic priority/FIFO wait queue (jobs that can never run —
//     larger than the cluster or their tenant's quota — are rejected
//     permanently with a reason);
//   - places admitted jobs onto free GPUs with a locality-aware
//     bin-packer over the cluster graph (fill hosts, then racks, before
//     spilling cross-rack; see placement.go, pluggable via Placer);
//   - drives the mccsd deployment lifecycle end to end: each job's rank
//     processes bring up frontends and a communicator, replay the trace,
//     then destroy the communicator and free buffers so a finished job
//     leaves no engine or fabric state behind and its capacity returns
//     to the pool;
//   - on every churn event (a new communicator coming up, a job
//     departing) triggers policy recompute — FFA route re-pinning and,
//     optionally, a full autotuner pass per surviving communicator —
//     through the existing reconfiguration barrier, so survivors re-plan
//     mid-flight exactly like the paper's Fig. 7, but unscripted and
//     continuous.
//
// Everything is deterministic: queue order, placement and policy
// recompute order are pure functions of the submitted specs, so a
// seeded arrival stream replays byte-for-byte.
package orchestrator

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"mccs/internal/collective"
	"mccs/internal/mccsd"
	"mccs/internal/policy"
	"mccs/internal/sim"
	"mccs/internal/spec"
	"mccs/internal/telemetry"
	"mccs/internal/topo"
	"mccs/internal/trace"
	"mccs/internal/workload"
)

// JobSpec describes one tenant job before submission.
type JobSpec struct {
	Tenant spec.AppID
	// GPUs is how many GPUs the job needs (exclusive, for its whole
	// lifetime).
	GPUs int
	// Priority is the QoS class: higher admits first. Ties admit in
	// arrival order, then submission order.
	Priority int
	// Arrival is when the job shows up, in virtual time.
	Arrival time.Duration
	// Trace is the per-iteration workload replayed once admitted.
	Trace workload.Trace
	// Iterations is the job's iteration budget (<= 0 means 1).
	Iterations int
}

// JobState is a job's lifecycle position.
type JobState int

const (
	// StatePending is submitted but not yet arrived.
	StatePending JobState = iota
	// StateQueued is waiting for quota headroom or capacity.
	StateQueued
	// StateRunning is placed and executing its trace.
	StateRunning
	// StateDone completed every iteration and tore down cleanly.
	StateDone
	// StateFailed ran but its workload reported an error.
	StateFailed
	// StateRejected was refused permanently at admission; Reason says why.
	StateRejected
)

var stateNames = [...]string{"pending", "queued", "running", "done", "failed", "rejected"}

func (s JobState) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return "?"
}

// Job is one submitted job's full lifecycle record.
type Job struct {
	ID    int
	Spec  JobSpec
	State JobState
	// Reason explains a StateRejected outcome.
	Reason string
	// CommID is the job's communicator once established.
	CommID spec.CommID

	Arrived  sim.Time
	Started  sim.Time
	Finished sim.Time

	// Placement is the GPU set the job ran on, ascending.
	Placement []topo.GPUID
	// Locality classifies the placement (host / rack / cross-rack).
	Locality Locality
	// Result is the workload outcome (iteration times, breakdown).
	Result *workload.Result
}

// QueueDelay is how long the job waited between arrival and placement.
func (j *Job) QueueDelay() time.Duration {
	if j.Started < j.Arrived {
		return 0
	}
	return time.Duration(j.Started.Sub(j.Arrived))
}

// JCT is the job completion time including queueing delay.
func (j *Job) JCT() time.Duration { return time.Duration(j.Finished.Sub(j.Arrived)) }

// Config parameterizes the orchestrator.
type Config struct {
	// Quota caps a tenant's concurrently held GPUs. Tenants absent from
	// the map are uncapped. A job asking for more than its tenant's
	// quota can never run and is rejected permanently.
	Quota map[spec.AppID]int
	// Placer chooses GPUs for admitted jobs; nil selects BinPack.
	Placer Placer
	// Reconfigure recomputes FFA route assignment for every surviving
	// communicator on each churn event.
	Reconfigure bool
	// Autotune additionally runs a full autotuner pass per surviving
	// communicator on each churn event (strategy re-planned against the
	// post-churn fabric, installed through the reconfiguration barrier).
	Autotune bool
}

// Orchestrator runs tenant lifecycles over one deployment. Create with
// New, Submit jobs before the scheduler runs, and read results after.
type Orchestrator struct {
	s       *sim.Scheduler
	cluster *topo.Cluster
	dep     *mccsd.Deployment
	ctrl    *policy.Controller
	cfg     Config
	placer  Placer

	free      map[topo.GPUID]bool
	totalGPUs int
	usage     map[spec.AppID]int
	queue     []*Job
	jobs      []*Job
	byComm    map[spec.CommID]*Job

	// Teardown/reconfiguration mutual exclusion: a communicator being
	// destroyed can never process a reconfiguration-barrier message, so
	// policy recomputes wait for in-flight teardowns and teardowns wait
	// for an in-flight recompute.
	churn         *sim.Queue[string]
	tearing       int
	reconfiguring bool
	teardownWQ    sim.WaitQueue
	reconfigWQ    sim.WaitQueue
	reconfigs     int

	// GPU-seconds integral for utilization accounting.
	busy     int
	busySecs float64
	lastBusy sim.Time

	errs []error

	rec *trace.Recorder

	mRunning   *telemetry.Gauge
	mQueued    *telemetry.Gauge
	mGPUsBusy  *telemetry.Gauge
	mQueueWait *telemetry.Gauge
	mPlace     map[Locality]*telemetry.Counter
	mRejects   *telemetry.Counter
	mCompleted *telemetry.Counter
	mReconfigs *telemetry.Counter
}

// New builds an orchestrator owning every GPU of the cluster. The
// deployment must be in service mode when Reconfigure or Autotune is on
// (baseline lib-mode deployments refuse reconfiguration).
func New(s *sim.Scheduler, cluster *topo.Cluster, dep *mccsd.Deployment, cfg Config) *Orchestrator {
	placer := cfg.Placer
	if placer == nil {
		placer = BinPack{}
	}
	o := &Orchestrator{
		s: s, cluster: cluster, dep: dep, cfg: cfg, placer: placer,
		free:   make(map[topo.GPUID]bool),
		usage:  make(map[spec.AppID]int),
		byComm: make(map[spec.CommID]*Job),
		churn:  sim.NewQueue[string](),
		rec:    trace.Of(s),
	}
	for _, h := range cluster.Hosts {
		for _, g := range h.GPUs {
			o.free[g] = true
		}
	}
	o.totalGPUs = len(o.free)
	if cfg.Reconfigure || cfg.Autotune {
		o.ctrl = policy.NewController(dep)
	}
	reg := telemetry.Of(s)
	o.mRunning = reg.Gauge("mccs_sched_jobs_running", "jobs")
	o.mQueued = reg.Gauge("mccs_sched_jobs_queued", "jobs")
	o.mGPUsBusy = reg.Gauge("mccs_sched_gpus_busy", "gpus")
	o.mQueueWait = reg.Gauge("mccs_sched_queue_wait_seconds", "s")
	o.mPlace = map[Locality]*telemetry.Counter{
		LocalityHost:  reg.Counter("mccs_sched_placements_total", "placements", telemetry.L("locality", "host")),
		LocalityRack:  reg.Counter("mccs_sched_placements_total", "placements", telemetry.L("locality", "rack")),
		LocalityCross: reg.Counter("mccs_sched_placements_total", "placements", telemetry.L("locality", "cross-rack")),
	}
	o.mRejects = reg.Counter("mccs_sched_admission_rejects_total", "jobs")
	o.mCompleted = reg.Counter("mccs_sched_jobs_completed_total", "jobs")
	o.mReconfigs = reg.Counter("mccs_sched_reconfigs_total", "recomputes")

	// The policy recompute loop: one daemon serializes every
	// churn-triggered FFA/autotune pass.
	s.GoDaemon("orchestrator:policy", func(p *sim.Proc) {
		for {
			o.recompute(p, o.churn.Pop(p))
		}
	})
	return o
}

// Submit registers a job before the simulation runs and schedules its
// arrival. Jobs are identified by submission order (1-based).
func (o *Orchestrator) Submit(js JobSpec) *Job {
	j := &Job{ID: len(o.jobs) + 1, Spec: js, State: StatePending}
	o.jobs = append(o.jobs, j)
	o.s.At(sim.Time(js.Arrival), func() { o.arrive(j) })
	return j
}

// Jobs returns every submitted job in submission order.
func (o *Orchestrator) Jobs() []*Job { return o.jobs }

// Reconfigs is how many churn-triggered policy recomputes ran.
func (o *Orchestrator) Reconfigs() int { return o.reconfigs }

// QueueLen is the current admission-queue depth.
func (o *Orchestrator) QueueLen() int { return len(o.queue) }

// FreeGPUs is the current free-pool size.
func (o *Orchestrator) FreeGPUs() int { return len(o.free) }

// Err aggregates controller and workload errors observed during the run.
func (o *Orchestrator) Err() error { return errors.Join(o.errs...) }

// Utilization is the busy-GPU time integral over cluster capacity up to
// the scheduler's current time.
func (o *Orchestrator) Utilization() float64 {
	now := o.s.Now()
	total := float64(o.totalGPUs) * time.Duration(now).Seconds()
	if total <= 0 {
		return 0
	}
	busy := o.busySecs + float64(o.busy)*time.Duration(now.Sub(o.lastBusy)).Seconds()
	return busy / total
}

// arrive admits, queues, or permanently rejects one arriving job.
func (o *Orchestrator) arrive(j *Job) {
	j.Arrived = o.s.Now()
	n := j.Spec.GPUs
	if n <= 0 {
		o.reject(j, "job needs at least one GPU")
		return
	}
	if n > o.totalGPUs {
		o.reject(j, fmt.Sprintf("job needs %d GPUs, cluster has %d", n, o.totalGPUs))
		return
	}
	if q, capped := o.cfg.Quota[j.Spec.Tenant]; capped && n > q {
		o.reject(j, fmt.Sprintf("job needs %d GPUs, tenant %s quota is %d", n, j.Spec.Tenant, q))
		return
	}
	j.State = StateQueued
	o.queue = append(o.queue, j)
	o.tryAdmit()
}

// reject marks a job permanently refused.
func (o *Orchestrator) reject(j *Job, reason string) {
	j.State = StateRejected
	j.Reason = reason
	j.Finished = o.s.Now()
	o.mRejects.Inc()
	o.emitSched(trace.SchedReject, j.Arrived, j.Arrived, j, string(j.Spec.Tenant))
}

// tryAdmit scans the wait queue in admission order — priority
// descending, then arrival, then submission — and starts every job
// whose tenant has quota headroom and for which the placer finds GPUs.
// Jobs that do not fit are skipped, not head-of-line blocking: a
// quota-capped tenant's backlog cannot stall other tenants (small jobs
// may backfill ahead of a big one until capacity frees).
func (o *Orchestrator) tryAdmit() {
	sort.SliceStable(o.queue, func(a, b int) bool {
		ja, jb := o.queue[a], o.queue[b]
		if ja.Spec.Priority != jb.Spec.Priority {
			return ja.Spec.Priority > jb.Spec.Priority
		}
		if ja.Arrived != jb.Arrived {
			return ja.Arrived < jb.Arrived
		}
		return ja.ID < jb.ID
	})
	var still []*Job
	for _, j := range o.queue {
		if !o.quotaOK(j) {
			still = append(still, j)
			continue
		}
		gpus, ok := o.placer.Place(o.cluster, o.freeSorted(), j.Spec.GPUs)
		if !ok {
			still = append(still, j)
			continue
		}
		o.start(j, gpus)
	}
	o.queue = still
	o.mQueued.Set(float64(len(o.queue)))
}

// quotaOK reports whether the tenant has headroom for the job now.
func (o *Orchestrator) quotaOK(j *Job) bool {
	q, capped := o.cfg.Quota[j.Spec.Tenant]
	return !capped || o.usage[j.Spec.Tenant]+j.Spec.GPUs <= q
}

// freeSorted snapshots the free pool ascending by GPU ID.
func (o *Orchestrator) freeSorted() []topo.GPUID {
	out := make([]topo.GPUID, 0, len(o.free))
	for g := range o.free {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// start places an admitted job and launches its workload.
func (o *Orchestrator) start(j *Job, gpus []topo.GPUID) {
	now := o.s.Now()
	j.State = StateRunning
	j.Started = now
	j.Placement = gpus
	j.Locality = localityOf(o.cluster, gpus)
	for _, g := range gpus {
		delete(o.free, g)
	}
	o.usage[j.Spec.Tenant] += len(gpus)
	o.noteBusy(len(gpus))
	o.mPlace[j.Locality].Inc()
	o.mRunning.Add(1)
	o.mQueueWait.Add(j.QueueDelay().Seconds())
	o.emitSched(trace.SchedQueue, j.Arrived, now, j, string(j.Spec.Tenant))

	fut := workload.Launch(workload.RunConfig{
		Dep: o.dep, App: j.Spec.Tenant,
		Key:        fmt.Sprintf("%s/job-%d", j.Spec.Tenant, j.ID),
		GPUs:       gpus,
		Trace:      j.Spec.Trace,
		Iterations: j.Spec.Iterations,
		OnReady: func(id spec.CommID) {
			j.CommID = id
			o.byComm[id] = j
			o.pushChurn("arrival")
		},
		Teardown:     true,
		TeardownGate: o.teardownGate,
	})
	o.s.Go(fmt.Sprintf("orchestrator:join-job%d", j.ID), func(p *sim.Proc) {
		o.complete(j, fut.Wait(p))
	})
}

// complete retires a finished job: capacity back to the pool, churn
// recompute for the survivors, and another admission pass.
func (o *Orchestrator) complete(j *Job, res *workload.Result) {
	now := o.s.Now()
	j.Finished = now
	j.Result = res
	j.State = StateDone
	if res.Err != nil {
		j.State = StateFailed
		o.errs = append(o.errs, fmt.Errorf("job %d (%s): %w", j.ID, j.Spec.Tenant, res.Err))
	}
	for _, g := range j.Placement {
		o.free[g] = true
	}
	o.usage[j.Spec.Tenant] -= len(j.Placement)
	if j.CommID != 0 {
		delete(o.byComm, j.CommID)
	}
	o.noteBusy(-len(j.Placement))
	o.mRunning.Add(-1)
	o.mCompleted.Inc()
	o.emitSched(trace.SchedRun, j.Started, now, j, string(j.Spec.Tenant))
	o.pushChurn("departure")
	o.tryAdmit()
}

// pushChurn enqueues one policy recompute when reconfiguration is on.
func (o *Orchestrator) pushChurn(cause string) {
	if !o.cfg.Reconfigure && !o.cfg.Autotune {
		return
	}
	o.churn.Push(o.s, cause)
}

// teardownGate serializes communicator teardown against policy
// recomputes (see the field comment). Each rank calls it right before
// Destroy; the returned release runs after the destroy completes.
func (o *Orchestrator) teardownGate(p *sim.Proc) func() {
	for o.reconfiguring {
		o.teardownWQ.Wait(p)
	}
	o.tearing++
	return func() {
		o.tearing--
		if o.tearing == 0 {
			o.reconfigWQ.WakeAll(o.s)
		}
	}
}

// recompute is one churn-triggered policy pass: wait out in-flight
// teardowns, then re-plan every surviving communicator — an autotuner
// search per tenant when enabled, then FFA route re-pinning across the
// whole view.
func (o *Orchestrator) recompute(p *sim.Proc, cause string) {
	for o.tearing > 0 {
		o.reconfigWQ.Wait(p)
	}
	view := o.dep.View()
	if len(view) == 0 {
		return
	}
	o.reconfiguring = true
	start := p.Now()
	o.reconfigs++
	o.mReconfigs.Inc()
	if o.cfg.Autotune {
		for _, ci := range view {
			opts := policy.AutotuneOptions{Op: collective.AllReduce, Bytes: o.tuneBytes(ci.ID)}
			if _, err := o.ctrl.Autotune(p, ci.ID, opts); err != nil {
				o.errs = append(o.errs, fmt.Errorf("autotune comm %d: %w", ci.ID, err))
			}
		}
	}
	if o.cfg.Reconfigure {
		if err := o.ctrl.ApplyFFA(); err != nil {
			o.errs = append(o.errs, fmt.Errorf("ffa: %w", err))
		}
	}
	o.reconfiguring = false
	o.teardownWQ.WakeAll(o.s)
	o.emitSched(trace.SchedReconfig, start, p.Now(), nil, cause)
}

// tuneBytes picks the autotune operating point for a communicator: the
// largest collective of its job's trace (64 MB when unknown).
func (o *Orchestrator) tuneBytes(id spec.CommID) int64 {
	var max int64 = 0
	if j := o.byComm[id]; j != nil {
		for _, ph := range j.Spec.Trace.Phases {
			if ph.Kind == workload.Collective && ph.Bytes > max {
				max = ph.Bytes
			}
		}
	}
	if max <= 0 {
		max = 64 << 20
	}
	return max
}

// noteBusy advances the busy-GPU integral and applies a delta.
func (o *Orchestrator) noteBusy(delta int) {
	now := o.s.Now()
	o.busySecs += float64(o.busy) * time.Duration(now.Sub(o.lastBusy)).Seconds()
	o.lastBusy = now
	o.busy += delta
	o.mGPUsBusy.Set(float64(o.busy))
}

// emitSched records one KindSched span. j is nil for recompute spans.
func (o *Orchestrator) emitSched(op int32, start, end sim.Time, j *Job, label string) {
	if !o.rec.Enabled(trace.KindSched) {
		return
	}
	sp := trace.Span{
		Kind: trace.KindSched, Op: op,
		Start: start, End: end,
		Host: -1, GPU: -1, Rank: -1, Peer: -1,
		Channel: -1, Gen: -1, Step: -1,
		Flow: -1, Src: -1, Dst: -1,
		Label: label,
	}
	if j != nil {
		sp.Seq = uint64(j.ID)
		sp.Comm = int32(j.CommID)
		sp.Bytes = int64(j.Spec.GPUs)
	}
	o.rec.Emit(sp)
}
