package orchestrator

import (
	"strings"
	"testing"
	"time"

	"mccs/internal/collective"
	"mccs/internal/mccsd"
	"mccs/internal/ncclsim"
	"mccs/internal/netsim"
	"mccs/internal/policy"
	"mccs/internal/sim"
	"mccs/internal/spec"
	"mccs/internal/topo"
	"mccs/internal/workload"
)

type env struct {
	s       *sim.Scheduler
	cluster *topo.Cluster
	fabric  *netsim.Fabric
	dep     *mccsd.Deployment
}

func newEnv(t *testing.T) *env {
	t.Helper()
	cluster, err := topo.BuildClos(topo.TestbedConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New()
	fabric := netsim.NewFabric(s, cluster.Net)
	dep := mccsd.NewDeployment(s, cluster, fabric, ncclsim.Config(ncclsim.MCCS))
	return &env{s: s, cluster: cluster, fabric: fabric, dep: dep}
}

// tinyTrace is a cheap one-collective iteration for lifecycle tests.
func tinyTrace() workload.Trace {
	return workload.Trace{Name: "tiny", Phases: []workload.Phase{
		{Kind: workload.Compute, Duration: 100 * time.Microsecond},
		{Kind: workload.Collective, Op: collective.AllReduce, Bytes: 1 << 20},
	}}
}

// slowTrace keeps a job running long enough for later arrivals to queue.
func slowTrace(compute time.Duration) workload.Trace {
	return workload.Trace{Name: "slow", Phases: []workload.Phase{
		{Kind: workload.Compute, Duration: compute},
		{Kind: workload.Collective, Op: collective.AllReduce, Bytes: 1 << 20},
	}}
}

func run(t *testing.T, e *env, o *Orchestrator) {
	t.Helper()
	if err := e.s.Run(); err != nil {
		t.Fatalf("scheduler: %v", err)
	}
	if err := o.Err(); err != nil {
		t.Fatalf("orchestrator: %v", err)
	}
}

// checkNoLeaks asserts a drained run left no engine or fabric state.
func checkNoLeaks(t *testing.T, e *env, o *Orchestrator) {
	t.Helper()
	if err := o.Drained(); err != nil {
		t.Error(err)
	}
	if v := e.dep.View(); len(v) != 0 {
		t.Errorf("%d communicators leaked", len(v))
	}
	if n := e.fabric.ManagedFlows(); n != 0 {
		t.Errorf("%d managed flows leaked", n)
	}
	if err := e.dep.CheckQuiescent(); err != nil {
		t.Errorf("not quiescent: %v", err)
	}
}

func TestJobLargerThanClusterRejected(t *testing.T) {
	e := newEnv(t)
	o := New(e.s, e.cluster, e.dep, nil, Config{})
	j := o.Submit(JobSpec{Tenant: "t", GPUs: 16, Trace: tinyTrace()})
	run(t, e, o)
	if j.State != StateRejected {
		t.Fatalf("state = %v, want rejected", j.State)
	}
	if !strings.Contains(j.Reason, "cluster has 8") {
		t.Fatalf("reason = %q, want cluster-size explanation", j.Reason)
	}
	checkNoLeaks(t, e, o)
}

// TestDrainedNamesWhatIsLeft stops a run while one job holds the whole
// cluster and another waits behind it: Drained must report the running job,
// the GPUs out of the pool and the queued job, and nothing once the run has
// finished.
func TestDrainedNamesWhatIsLeft(t *testing.T) {
	e := newEnv(t)
	defer e.s.Shutdown()
	o := New(e.s, e.cluster, e.dep, nil, Config{})
	o.Submit(JobSpec{Tenant: "a", GPUs: 8, Trace: slowTrace(10 * time.Millisecond)})
	o.Submit(JobSpec{Tenant: "b", GPUs: 4, Arrival: time.Millisecond, Trace: tinyTrace()})
	if err := e.s.RunUntil(sim.Time(5 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	err := o.Drained()
	if err == nil {
		t.Fatal("Drained accepted a run stopped mid-job")
	}
	for _, want := range []string{"job 1 (a) still running", "job 2 (b) still queued", "0 of 8 GPUs returned", "1 jobs still queued"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("Drained() = %q, missing %q", err, want)
		}
	}
	run(t, e, o)
	checkNoLeaks(t, e, o)
}

func TestJobOverQuotaRejected(t *testing.T) {
	e := newEnv(t)
	o := New(e.s, e.cluster, e.dep, nil, Config{Quota: map[spec.AppID]int{"t": 4}})
	j := o.Submit(JobSpec{Tenant: "t", GPUs: 8, Trace: tinyTrace()})
	run(t, e, o)
	if j.State != StateRejected || !strings.Contains(j.Reason, "quota is 4") {
		t.Fatalf("state = %v reason = %q, want quota rejection", j.State, j.Reason)
	}
}

func TestClusterFullQueuesThenAdmits(t *testing.T) {
	e := newEnv(t)
	o := New(e.s, e.cluster, e.dep, nil, Config{})
	a := o.Submit(JobSpec{Tenant: "a", GPUs: 8, Trace: slowTrace(10 * time.Millisecond)})
	b := o.Submit(JobSpec{Tenant: "b", GPUs: 4, Arrival: time.Millisecond, Trace: tinyTrace()})
	run(t, e, o)
	if a.State != StateDone || b.State != StateDone {
		t.Fatalf("states = %v/%v, want done/done", a.State, b.State)
	}
	if b.QueueDelay() <= 0 {
		t.Fatalf("job b queue delay = %v, want > 0 (cluster was full)", b.QueueDelay())
	}
	if b.Started < a.Finished {
		t.Fatalf("job b started %v before a finished %v", b.Started, a.Finished)
	}
	checkNoLeaks(t, e, o)
}

func TestQuotaCappedTenantSerializes(t *testing.T) {
	e := newEnv(t)
	o := New(e.s, e.cluster, e.dep, nil, Config{Quota: map[spec.AppID]int{"capped": 4}})
	a := o.Submit(JobSpec{Tenant: "capped", GPUs: 4, Trace: tinyTrace()})
	b := o.Submit(JobSpec{Tenant: "capped", GPUs: 4, Arrival: time.Microsecond, Trace: tinyTrace()})
	// The other tenant is not blocked by capped's backlog.
	c := o.Submit(JobSpec{Tenant: "free", GPUs: 4, Arrival: 2 * time.Microsecond, Trace: tinyTrace()})
	run(t, e, o)
	for _, j := range []*Job{a, b, c} {
		if j.State != StateDone {
			t.Fatalf("job %d state = %v, want done", j.ID, j.State)
		}
	}
	if b.Started < a.Finished {
		t.Fatalf("quota-capped jobs overlapped: b started %v, a finished %v", b.Started, a.Finished)
	}
	if c.QueueDelay() != 0 {
		t.Fatalf("uncapped tenant queued %v behind capped backlog", c.QueueDelay())
	}
	checkNoLeaks(t, e, o)
}

func TestFragmentationForcesCrossRackSpill(t *testing.T) {
	e := newEnv(t)
	o := New(e.s, e.cluster, e.dep, nil, Config{})
	// A 3-GPU job fragments rack 0 (g0, g1, g2 leave only g3 free
	// there); the 5-GPU job that follows cannot fit either rack alone.
	long := workload.Trace{Name: "long", Phases: []workload.Phase{
		{Kind: workload.Compute, Duration: 50 * time.Millisecond},
		{Kind: workload.Collective, Op: collective.AllReduce, Bytes: 1 << 20},
	}}
	a := o.Submit(JobSpec{Tenant: "a", GPUs: 3, Trace: long})
	b := o.Submit(JobSpec{Tenant: "b", GPUs: 5, Arrival: time.Millisecond, Trace: tinyTrace()})
	run(t, e, o)
	if a.Locality != LocalityRack {
		t.Fatalf("job a locality = %v (placement %v), want rack", a.Locality, a.Placement)
	}
	if b.Locality != LocalityCross {
		t.Fatalf("job b locality = %v (placement %v), want cross-rack", b.Locality, b.Placement)
	}
	if b.QueueDelay() != 0 {
		t.Fatalf("job b queued %v, want immediate spill placement", b.QueueDelay())
	}
	checkNoLeaks(t, e, o)
}

func TestPriorityAdmitsFirst(t *testing.T) {
	e := newEnv(t)
	o := New(e.s, e.cluster, e.dep, nil, Config{})
	// The cluster is busy when lo and hi queue up together; hi must
	// admit first once capacity frees even though lo arrived earlier.
	hog := o.Submit(JobSpec{Tenant: "hog", GPUs: 8, Trace: slowTrace(10 * time.Millisecond)})
	lo := o.Submit(JobSpec{Tenant: "lo", GPUs: 8, Priority: 0, Arrival: time.Millisecond, Trace: tinyTrace()})
	hi := o.Submit(JobSpec{Tenant: "hi", GPUs: 8, Priority: 1, Arrival: 2 * time.Millisecond, Trace: tinyTrace()})
	run(t, e, o)
	if hog.State != StateDone || lo.State != StateDone || hi.State != StateDone {
		t.Fatalf("states = %v/%v/%v", hog.State, lo.State, hi.State)
	}
	if hi.Started > lo.Started {
		t.Fatalf("high-priority job started %v after low-priority %v", hi.Started, lo.Started)
	}
	checkNoLeaks(t, e, o)
}

func TestChurnTriggersReconfigs(t *testing.T) {
	e := newEnv(t)
	o := New(e.s, e.cluster, e.dep, func() *policy.Controller { return policy.NewController(e.dep) }, Config{Reconfigure: true})
	o.Submit(JobSpec{Tenant: "a", GPUs: 4, Trace: tinyTrace(), Iterations: 3})
	o.Submit(JobSpec{Tenant: "b", GPUs: 4, Arrival: 500 * time.Microsecond, Trace: tinyTrace(), Iterations: 3})
	run(t, e, o)
	if o.Reconfigs() == 0 {
		t.Fatal("no churn-triggered reconfigurations ran")
	}
	checkNoLeaks(t, e, o)
}
