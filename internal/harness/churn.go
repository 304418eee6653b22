package harness

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"mccs/internal/collective"
	"mccs/internal/ncclsim"
	"mccs/internal/orchestrator"
	"mccs/internal/sim"
	"mccs/internal/spec"
	"mccs/internal/telemetry"
	"mccs/internal/topo"
	"mccs/internal/workload"
)

// This file drives the tenant-churn experiment: a seeded Poisson-ish
// arrival stream of training jobs over the Fig. 6 testbed, run through
// the lifecycle orchestrator (admission, quota, locality-aware
// placement, teardown, churn-triggered reconfiguration). The headline
// numbers are per-job JCT and queueing delay, cluster GPU utilization,
// and how many policy recomputes churn triggered.

// ChurnConfig parameterizes one churn run.
type ChurnConfig struct {
	// Seed drives the arrival stream: same seed, same binary => the
	// same job mix, placements, and byte-identical report.
	Seed uint64
	// Jobs is how many jobs to generate, at least one.
	Jobs int
	// MeanGap is the mean exponential inter-arrival gap, positive.
	MeanGap time.Duration
	// Reconfigure re-pins FFA routes on every churn event (default on
	// via DefaultChurnConfig).
	Reconfigure bool
	// Autotune additionally re-plans each surviving communicator's
	// strategy on churn.
	Autotune bool
	// Placer overrides the placement policy (nil = BinPack).
	Placer orchestrator.Placer
	// Quota caps tenants' concurrent GPUs (nil = uncapped).
	Quota map[spec.AppID]int
	// Observers: the trace includes the orchestrator's KindSched spans,
	// the telemetry series its mccs_sched_* families, and the doctor
	// reports admission-queue waits and churn-triggered reconfigurations
	// as incidents.
	Observers
}

// DefaultChurnConfig is the mccs churn CLI default: 8 jobs over the
// MCCS service with churn-triggered FFA reconfiguration on.
func DefaultChurnConfig() ChurnConfig {
	return ChurnConfig{
		Seed:        1,
		Jobs:        8,
		MeanGap:     30 * time.Millisecond,
		Reconfigure: true,
	}
}

// ChurnResult reports one churn run.
type ChurnResult struct {
	// Jobs is every generated job in submission order, with lifecycle
	// timestamps, placement and workload results filled in.
	Jobs []*orchestrator.Job
	// Reconfigs is how many churn-triggered policy recomputes ran.
	Reconfigs int
	// Utilization is busy-GPU-seconds over cluster GPU-seconds across
	// the run.
	Utilization float64
	// Makespan is the virtual time at which the last job finished.
	Makespan time.Duration
	// Telemetry is the sampled metrics series when TelemetryPath or
	// TelemetryEvery was set (mccs top -live -scenario churn reads it).
	Telemetry *telemetry.Series
}

// splitmix64 is the deterministic PRNG behind the arrival stream (same
// generator family as the chaos harness, independent constants).
type splitmix64 struct{ state uint64 }

func (r *splitmix64) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *splitmix64) intn(n int) int { return int(r.next() % uint64(n)) }

// float64 in (0, 1].
func (r *splitmix64) uniform() float64 {
	return (float64(r.next()>>11) + 1) / (1 << 53)
}

// expGap draws an exponential inter-arrival gap with the given mean.
func (r *splitmix64) expGap(mean time.Duration) time.Duration {
	return time.Duration(-float64(mean) * math.Log(r.uniform()))
}

// churnTraces are the job templates of the arrival mix: the paper's
// workload shapes (bucketed data-parallel, chatty tensor-parallel,
// compute-heavy vision) scaled to megabyte collectives and millisecond
// compute so a many-job churn run stays cheap to simulate.
func churnTraces() []workload.Trace {
	mini := func(name string, compute time.Duration, bytes int64, buckets int, overlap bool) workload.Trace {
		t := workload.Trace{Name: name}
		per := compute / time.Duration(buckets+1)
		for b := 0; b < buckets; b++ {
			t.Phases = append(t.Phases, workload.Phase{Kind: workload.Compute, Duration: per})
			t.Phases = append(t.Phases, workload.Phase{
				Kind: workload.Collective, Op: collective.AllReduce,
				Bytes: bytes / int64(buckets), Overlap: overlap,
			})
		}
		t.Phases = append(t.Phases, workload.Phase{Kind: workload.Compute, Duration: per})
		return t
	}
	return []workload.Trace{
		mini("vgg-mini", 4*time.Millisecond, 32<<20, 4, true),
		mini("gpt-mini", 2*time.Millisecond, 16<<20, 8, false),
		mini("resnet-mini", 6*time.Millisecond, 8<<20, 1, false),
	}
}

// churnTenants is the tenant mix; quotas key off these IDs.
var churnTenants = []spec.AppID{"tenant-a", "tenant-b", "tenant-c", "tenant-d"}

// GenerateChurnJobs draws the deterministic job stream for a seed:
// exponential arrival gaps, GPU demands from {2, 4, 8}, a trace and
// priority per job. Exposed so tests can pin the schedule golden.
func GenerateChurnJobs(seed uint64, n int, meanGap time.Duration) []orchestrator.JobSpec {
	rng := &splitmix64{state: seed ^ 0xd1b54a32d192ed03}
	traces := churnTraces()
	sizes := []int{2, 2, 4, 4, 8}
	var arrival time.Duration
	specs := make([]orchestrator.JobSpec, 0, n)
	for i := 0; i < n; i++ {
		arrival += rng.expGap(meanGap)
		specs = append(specs, orchestrator.JobSpec{
			Tenant:     churnTenants[rng.intn(len(churnTenants))],
			GPUs:       sizes[rng.intn(len(sizes))],
			Priority:   rng.intn(2),
			Arrival:    arrival,
			Trace:      traces[rng.intn(len(traces))],
			Iterations: 2 + rng.intn(3),
		})
	}
	return specs
}

// RunChurn executes one churn experiment end to end.
func RunChurn(cfg ChurnConfig) (*ChurnResult, error) {
	env, err := NewEnv(EnvOptions{System: ncclsim.MCCS, Salt: cfg.Seed, Observers: cfg.Observers})
	if err != nil {
		return nil, err
	}
	defer env.Close()
	orch := orchestrator.New(env.S, env.Cluster, env.Deployment, env.Controller, orchestrator.Config{
		Quota:       cfg.Quota,
		Placer:      cfg.Placer,
		Reconfigure: cfg.Reconfigure,
		Autotune:    cfg.Autotune,
	})
	for _, js := range GenerateChurnJobs(cfg.Seed, cfg.Jobs, cfg.MeanGap) {
		orch.Submit(js)
	}
	if err := env.S.Run(); err != nil {
		return nil, err
	}
	// Zero-leak invariant: after the stream drains, every finished job
	// must have returned its capacity and left no engine or fabric state.
	if err := orch.Drained(); err != nil {
		return nil, err
	}
	if n := env.Deployment.NumComms(); n != 0 {
		return nil, fmt.Errorf("harness: %d communicators leaked after teardown", n)
	}
	if n := env.Fabric.ManagedFlows(); n != 0 {
		return nil, fmt.Errorf("harness: %d managed flows leaked after drain", n)
	}
	if err := env.Deployment.CheckQuiescent(); err != nil {
		return nil, fmt.Errorf("harness: churn not quiescent: %w", err)
	}
	if err := env.Export(); err != nil {
		return nil, err
	}
	res := &ChurnResult{
		Jobs:        orch.Jobs(),
		Reconfigs:   orch.Reconfigs(),
		Utilization: orch.Utilization(),
		Telemetry:   telemetry.SeriesOf(env.Telemetry),
	}
	var last sim.Time
	for _, j := range res.Jobs {
		if j.Finished > last {
			last = j.Finished
		}
	}
	res.Makespan = time.Duration(last)
	return res, nil
}

// FormatChurnTable renders the deterministic per-job report the CLI
// prints and the determinism tests byte-compare.
func FormatChurnTable(res *ChurnResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "JOB  TENANT    GPUS PRIO STATE     LOCALITY    ARRIVAL      QUEUE        JCT  ITERS  PLACEMENT\n")
	jobs := append([]*orchestrator.Job(nil), res.Jobs...)
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].ID < jobs[j].ID })
	for _, j := range jobs {
		loc, qd, jct, iters, placement := "-", "-", "-", "-", "-"
		switch j.State {
		case orchestrator.StateDone, orchestrator.StateFailed, orchestrator.StateRunning:
			loc = j.Locality.String()
			qd = ms(j.QueueDelay())
			placement = gpuList(j.Placement)
			if j.Result != nil {
				iters = fmt.Sprintf("%d", len(j.Result.IterTimes))
			}
			if j.State != orchestrator.StateRunning {
				jct = ms(j.JCT())
			}
		}
		fmt.Fprintf(&b, "%3d  %-9s %4d %4d %-9s %-11s %9s  %9s  %9s  %5s  %s\n",
			j.ID, j.Spec.Tenant, j.Spec.GPUs, j.Spec.Priority, j.State, loc,
			ms(time.Duration(j.Arrived)), qd, jct, iters, placement)
		if j.State == orchestrator.StateRejected {
			fmt.Fprintf(&b, "     rejected: %s\n", j.Reason)
		}
	}
	fmt.Fprintf(&b, "\nmakespan        %s\n", ms(res.Makespan))
	fmt.Fprintf(&b, "reconfigs       %d\n", res.Reconfigs)
	fmt.Fprintf(&b, "gpu utilization %5.1f%%\n", res.Utilization*100)
	return b.String()
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.3fms", float64(d)/float64(time.Millisecond))
}

func gpuList(gpus []topo.GPUID) string {
	parts := make([]string, len(gpus))
	for i, g := range gpus {
		parts[i] = fmt.Sprintf("g%d", g)
	}
	return strings.Join(parts, ",")
}
