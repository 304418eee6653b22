package chaos

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"mccs/internal/collective"
	"mccs/internal/harness"
	"mccs/internal/orchestrator"
	"mccs/internal/spec"
	"mccs/internal/workload"
)

// installChurn stands up the tenant lifecycle orchestrator over the
// chaos testbed and submits sc.Churn seed-derived jobs. The jobs share
// the fabric (and, via churn-triggered recomputes, the policy plane)
// with the scripted workload; the post-run invariants require every one
// of them to finish and leak nothing. The churn PRNG stream is drawn
// nowhere else, so scenarios without churn replay byte-identically.
func installChurn(env *harness.Env, sc Scenario, rng *rand.Rand) (*orchestrator.Orchestrator, []*orchestrator.Job) {
	orch := orchestrator.New(env.S, env.Cluster, env.Deployment, env.Controller, orchestrator.Config{
		// churn-a is quota-capped so the wait queue and the
		// capacity-return admission path get exercised.
		Quota:       map[spec.AppID]int{"churn-a": 4},
		Reconfigure: true,
	})
	sizes := []int{2, 2, 4}
	jobs := make([]*orchestrator.Job, 0, sc.Churn)
	for i := 0; i < sc.Churn; i++ {
		tenant := spec.AppID("churn-a")
		if rng.Intn(2) == 1 {
			tenant = spec.AppID("churn-b")
		}
		jobs = append(jobs, orch.Submit(orchestrator.JobSpec{
			Tenant:     tenant,
			GPUs:       sizes[rng.Intn(len(sizes))],
			Priority:   rng.Intn(2),
			Arrival:    time.Millisecond + randDuration(rng, sc.Horizon),
			Trace:      churnTrace(rng, i),
			Iterations: 1 + rng.Intn(2),
		}))
	}
	return orch, jobs
}

// churnTrace draws one small job trace: a couple of microsecond-scale
// compute blocks interleaved with kilobyte collectives, sized so a full
// churn cohort drains well inside the livelock deadline.
func churnTrace(rng *rand.Rand, i int) workload.Trace {
	t := workload.Trace{Name: fmt.Sprintf("churn-%d", i)}
	phases := 1 + rng.Intn(2)
	for p := 0; p < phases; p++ {
		t.Phases = append(t.Phases,
			workload.Phase{Kind: workload.Compute, Duration: time.Duration(20+rng.Intn(60)) * time.Microsecond},
			workload.Phase{Kind: workload.Collective, Op: collective.AllReduce, Bytes: int64(16<<10) << rng.Intn(3)},
		)
	}
	return t
}

// checkChurn is the leak invariant for the lifecycle scenario: after
// the scheduler drains, the orchestrator must be drained (every churn job
// finished without error, all capacity back in the pool, the wait queue
// empty), and the only communicators left in the management view must
// belong to the scripted workload (which never destroys its own).
func checkChurn(env *harness.Env, orch *orchestrator.Orchestrator) []string {
	var errs []string
	if orch == nil {
		return nil
	}
	if err := orch.Drained(); err != nil {
		for _, line := range strings.Split(err.Error(), "\n") {
			errs = append(errs, "churn: "+line)
		}
	}
	for _, ci := range env.Deployment.View() {
		if ci.App != "chaos" {
			errs = append(errs, fmt.Sprintf("churn: comm %d (app %s) leaked after teardown", ci.ID, ci.App))
		}
	}
	return errs
}
