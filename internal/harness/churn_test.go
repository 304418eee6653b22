package harness

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"mccs/internal/collective"
	"mccs/internal/mccsd"
	"mccs/internal/ncclsim"
	"mccs/internal/orchestrator"
	"mccs/internal/topo"
	"mccs/internal/workload"
)

// TestChurnSmoke is the make-churn acceptance run: 8 jobs through the
// orchestrator, all terminal, zero leaks (RunChurn errors on any leak),
// queued jobs admitted once capacity frees, and churn reconfigurations
// observed.
func TestChurnSmoke(t *testing.T) {
	res, err := RunChurn(DefaultChurnConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 8 {
		t.Fatalf("got %d jobs, want 8", len(res.Jobs))
	}
	queued := 0
	for _, j := range res.Jobs {
		if j.State != orchestrator.StateDone {
			t.Errorf("job %d state = %v, want done", j.ID, j.State)
		}
		if j.QueueDelay() > 0 {
			queued++
		}
	}
	if queued == 0 {
		t.Error("no job ever queued: the stream never filled the cluster")
	}
	if res.Reconfigs == 0 {
		t.Error("no churn-triggered reconfigurations ran")
	}
	if res.Utilization <= 0 || res.Utilization > 1 {
		t.Errorf("utilization = %v, want (0, 1]", res.Utilization)
	}
}

// TestChurnSameSeedByteIdentical reruns the same seed and requires the
// job table and the telemetry export to match byte for byte.
func TestChurnSameSeedByteIdentical(t *testing.T) {
	dir := t.TempDir()
	runOnce := func(name string) (string, []byte) {
		cfg := DefaultChurnConfig()
		cfg.TelemetryPath = filepath.Join(dir, name+".jsonl")
		res, err := RunChurn(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tel, err := os.ReadFile(cfg.TelemetryPath)
		if err != nil {
			t.Fatal(err)
		}
		return FormatChurnTable(res), tel
	}
	table1, tel1 := runOnce("a")
	table2, tel2 := runOnce("b")
	if table1 != table2 {
		t.Errorf("job tables differ between same-seed runs:\n--- a ---\n%s--- b ---\n%s", table1, table2)
	}
	if string(tel1) != string(tel2) {
		t.Error("telemetry exports differ between same-seed runs")
	}
}

// TestChurnDifferentSeedsDiffer guards against the stream ignoring its
// seed.
func TestChurnDifferentSeedsDiffer(t *testing.T) {
	a := GenerateChurnJobs(1, 8, 30*time.Millisecond)
	b := GenerateChurnJobs(2, 8, 30*time.Millisecond)
	same := true
	for i := range a {
		if a[i].Tenant != b[i].Tenant || a[i].GPUs != b[i].GPUs || a[i].Arrival != b[i].Arrival {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 1 and 2 generated identical job streams")
	}
}

// TestChurnGoldenSchedule pins the seed-1 schedule: which tenant got
// which GPUs, in what order, at what locality. Timings are left out so
// the golden survives cost-model tuning; the schedule itself must not
// drift silently.
func TestChurnGoldenSchedule(t *testing.T) {
	res, err := RunChurn(DefaultChurnConfig())
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, j := range res.Jobs {
		got.WriteString(scheduleLine(j) + "\n")
	}
	want := strings.Join([]string{
		"1 tenant-b 2 prio0 done host g0,g1",
		"2 tenant-c 2 prio0 done host g2,g3",
		"3 tenant-c 2 prio0 done host g0,g1",
		"4 tenant-a 4 prio1 done rack g0,g1,g2,g3",
		"5 tenant-d 8 prio1 done cross-rack g0,g1,g2,g3,g4,g5,g6,g7",
		"6 tenant-d 8 prio0 done cross-rack g0,g1,g2,g3,g4,g5,g6,g7",
		"7 tenant-c 4 prio0 done rack g0,g1,g2,g3",
		"8 tenant-b 4 prio1 done rack g4,g5,g6,g7",
	}, "\n") + "\n"
	if got.String() != want {
		t.Errorf("seed-1 schedule drifted:\n--- got ---\n%s--- want ---\n%s", got.String(), want)
	}
}

func scheduleLine(j *orchestrator.Job) string {
	return strings.Join([]string{
		strconv.Itoa(j.ID), string(j.Spec.Tenant), strconv.Itoa(j.Spec.GPUs),
		"prio" + strconv.Itoa(j.Spec.Priority), j.State.String(), j.Locality.String(),
		gpuList(j.Placement),
	}, " ")
}

// zigzagPlacer hands jobs a rack-interleaved rank order — the
// topology-oblivious ordering a cloud launcher produces — so the
// initial rank-order ring zigzags across racks exactly like the paper's
// NCCL baseline.
type zigzagPlacer struct{}

func (zigzagPlacer) Place(c *topo.Cluster, free []topo.GPUID, n int) ([]topo.GPUID, bool) {
	gpus, ok := orchestrator.RackSpread{}.Place(c, free, n)
	if !ok {
		return nil, false
	}
	byRack := make(map[topo.RackID][]topo.GPUID)
	var racks []topo.RackID
	for _, g := range gpus {
		r := c.RackOf(c.HostOfGPU(g))
		if _, seen := byRack[r]; !seen {
			racks = append(racks, r)
		}
		byRack[r] = append(byRack[r], g)
	}
	var out []topo.GPUID
	for i := 0; len(out) < len(gpus); i++ {
		for _, r := range racks {
			if i < len(byRack[r]) {
				out = append(out, byRack[r][i])
			}
		}
	}
	return out, true
}

// TestChurnReconfigImprovesSurvivor is the acceptance harness test: a
// surviving tenant whose communicator was planned with a naive
// rank-order ring gets measurably faster iterations after the
// orchestrator's churn-triggered recompute re-plans it, versus an
// identical run with reconfiguration disabled.
func TestChurnReconfigImprovesSurvivor(t *testing.T) {
	run := func(reconfig bool) *orchestrator.Job {
		// Service-mode deployment, but communicators start on the naive
		// rank-order ring (NCCL's "order of user-specified ranks"): the
		// recompute has real headroom to claw back.
		env, err := NewEnv(EnvOptions{System: ncclsim.MCCS, Salt: 1, Mutate: func(c *mccsd.Config) {
			c.Strategy = mccsd.RankOrderStrategy
		}})
		if err != nil {
			t.Fatal(err)
		}
		orch := orchestrator.New(env.S, env.Cluster, env.Deployment, env.Controller, orchestrator.Config{
			Placer:      zigzagPlacer{},
			Reconfigure: reconfig,
			Autotune:    reconfig,
		})
		// The survivor: a communication-heavy tenant spread across both
		// racks, running long enough to straddle the churn.
		survivor := orch.Submit(orchestrator.JobSpec{
			Tenant: "survivor", GPUs: 4,
			Trace: workload.Trace{Name: "hot", Phases: []workload.Phase{
				{Kind: workload.Compute, Duration: 200 * time.Microsecond},
				{Kind: workload.Collective, Op: collective.AllReduce, Bytes: 32 << 20},
			}},
			Iterations: 12,
		})
		// The churn: a second tenant arrives mid-run and departs again.
		orch.Submit(orchestrator.JobSpec{
			Tenant: "churner", GPUs: 4, Arrival: 10 * time.Millisecond,
			Trace: workload.Trace{Name: "blip", Phases: []workload.Phase{
				{Kind: workload.Compute, Duration: 500 * time.Microsecond},
				{Kind: workload.Collective, Op: collective.AllReduce, Bytes: 4 << 20},
			}},
			Iterations: 2,
		})
		if err := env.S.Run(); err != nil {
			t.Fatal(err)
		}
		if err := orch.Err(); err != nil {
			t.Fatal(err)
		}
		if reconfig && orch.Reconfigs() == 0 {
			t.Fatal("no churn reconfiguration ran in the reconfig arm")
		}
		if survivor.State != orchestrator.StateDone {
			t.Fatalf("survivor state = %v", survivor.State)
		}
		return survivor
	}
	tuned := run(true)
	control := run(false)
	// Compare the post-churn tail: the survivor's final iterations run
	// after the recompute re-planned its communicator.
	tail := func(j *orchestrator.Job) time.Duration {
		iters := j.Result.IterTimes
		var sum time.Duration
		for _, d := range iters[len(iters)-4:] {
			sum += d
		}
		return sum / 4
	}
	tt, ct := tail(tuned), tail(control)
	if tt >= ct {
		t.Fatalf("churn reconfiguration did not improve the survivor: tail %v (reconfig) vs %v (control)", tt, ct)
	}
	t.Logf("survivor tail iteration: %v reconfigured vs %v control (%.1f%% faster)",
		tt, ct, 100*(1-float64(tt)/float64(ct)))
}
