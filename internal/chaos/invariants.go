package chaos

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"mccs/internal/harness"
	"mccs/internal/orchestrator"
	"mccs/internal/spec"
	"mccs/internal/telemetry"
	"mccs/internal/workload"
)

// ledger records every collective execution the proxies perform —
// (communicator, rank, generation, sequence number) — via the proxy's
// ExecObserver hook. After the run it certifies the Fig. 4 guarantee:
// each sequence number executes exactly once per rank, on every rank,
// and all ranks execute it under the same generation (ring view). A
// mixed-generation execution means some rank ran an op on the old ring
// while a peer ran the same op on the new one — exactly the corruption
// the sequence-number barrier exists to prevent.
type ledger struct {
	gens map[execKey]int
	errs []string
}

type execKey struct {
	comm spec.CommID
	rank int
	seq  uint64
}

func newLedger() *ledger { return &ledger{gens: make(map[execKey]int)} }

func (l *ledger) observe(comm spec.CommID, rank, gen int, seq uint64) {
	k := execKey{comm: comm, rank: rank, seq: seq}
	if prev, ok := l.gens[k]; ok {
		l.errs = append(l.errs, fmt.Sprintf(
			"comm %d rank %d seq %d executed twice (gen %d then %d)", comm, rank, seq, prev, gen))
		return
	}
	l.gens[k] = gen
}

// commShape is what the ledger holds one communicator to: its rank count
// and the number of distinct collectives it must have executed.
type commShape struct{ ranks, ops int }

// commShapes is the expected shape of every communicator that may
// execute in a run: the script's, and one per established churn job —
// its job's GPU count, and one op per collective phase per iteration
// (workload.runRank issues exactly that).
func commShapes(sc Scenario, script spec.CommID, jobs []*orchestrator.Job) map[spec.CommID]commShape {
	want := map[spec.CommID]commShape{script: {ranks: sc.Ranks, ops: sc.Ops}}
	for _, j := range jobs {
		if j.CommID == 0 {
			continue
		}
		phases := 0
		for _, ph := range j.Spec.Trace.Phases {
			if ph.Kind == workload.Collective {
				phases++
			}
		}
		want[j.CommID] = commShape{ranks: j.Spec.GPUs, ops: j.Spec.Iterations * phases}
	}
	return want
}

// check verifies the generation-agreement invariant against the expected
// communicator shapes: every communicator in want executed exactly its
// op count, every sequence number executed on exactly its ranks 0..n-1
// under one generation, and no communicator outside want executed at
// all.
func (l *ledger) check(want map[spec.CommID]commShape) error {
	if len(l.errs) > 0 {
		return errors.New(strings.Join(l.errs, "; "))
	}
	type seqKey struct {
		comm spec.CommID
		seq  uint64
	}
	byOp := make(map[seqKey]map[int]int)
	ops := make(map[spec.CommID]int)
	for k, gen := range l.gens {
		sk := seqKey{comm: k.comm, seq: k.seq}
		m := byOp[sk]
		if m == nil {
			m = make(map[int]int)
			byOp[sk] = m
			ops[sk.comm]++
		}
		m[k.rank] = gen
	}
	comms := make([]spec.CommID, 0, len(want)+len(ops))
	for c := range want {
		comms = append(comms, c)
	}
	for c := range ops {
		if _, ok := want[c]; !ok {
			comms = append(comms, c)
		}
	}
	slices.Sort(comms)
	for _, c := range comms {
		w, ok := want[c]
		if !ok {
			return fmt.Errorf("comm %d executed %d collectives but is neither the script's nor a churn job's", c, ops[c])
		}
		if ops[c] != w.ops {
			return fmt.Errorf("%d distinct collectives executed on comm %d, want %d", ops[c], c, w.ops)
		}
	}
	keys := make([]seqKey, 0, len(byOp))
	for sk := range byOp {
		keys = append(keys, sk)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].comm != keys[j].comm {
			return keys[i].comm < keys[j].comm
		}
		return keys[i].seq < keys[j].seq
	})
	for _, sk := range keys {
		m := byOp[sk]
		n := want[sk.comm].ranks
		if len(m) > n {
			return fmt.Errorf("comm %d seq %d executed on %d ranks, want %d", sk.comm, sk.seq, len(m), n)
		}
		gen0 := m[0]
		for r := 0; r < n; r++ {
			g, ok := m[r]
			if !ok {
				return fmt.Errorf("comm %d seq %d never executed on rank %d", sk.comm, sk.seq, r)
			}
			if g != gen0 {
				return fmt.Errorf(
					"comm %d seq %d executed with mixed ring views: rank 0 in gen %d, rank %d in gen %d",
					sk.comm, sk.seq, gen0, r, g)
			}
		}
	}
	return nil
}

// checkInvariants evaluates every post-run invariant and folds the
// violations into one error (nil when all hold):
//
//   - the scheduler drained without deadlock, livelock, or panic;
//   - every rank proc ran to completion;
//   - every collective's output matched the closed form, and its send
//     buffer still held the rank's inputs;
//   - generation agreement (ledger.check);
//   - quiescence: no leaked managed flows on the fabric, and no queued
//     or in-flight work left in any proxy runner;
//   - lifecycle (churn scenarios): the orchestrator drained (every job
//     finished and returned its capacity), and no tenant communicator
//     outlived its teardown (checkChurn).
func checkInvariants(env *harness.Env, sc Scenario, led *ledger, simErr error, rankErrs []error, finished int, scriptComm spec.CommID, orch *orchestrator.Orchestrator, churnJobs []*orchestrator.Job) error {
	var errs []string
	if simErr != nil {
		errs = append(errs, "scheduler: "+simErr.Error())
	}
	if finished != sc.Ranks {
		errs = append(errs, fmt.Sprintf("progress: %d of %d rank procs completed", finished, sc.Ranks))
	}
	for _, e := range rankErrs {
		if e != nil {
			errs = append(errs, "data: "+e.Error())
		}
	}
	if err := led.check(commShapes(sc, scriptComm, churnJobs)); err != nil {
		errs = append(errs, "generation: "+err.Error())
	}
	errs = append(errs, checkChurn(env, orch)...)
	if n := env.Fabric.ManagedFlows(); n != 0 {
		errs = append(errs, fmt.Sprintf("quiescence: %d managed flows still active after drain", n))
	}
	if err := env.Deployment.CheckQuiescent(); err != nil {
		errs = append(errs, "quiescence: "+err.Error())
	}
	if err := checkTelemetry(env.Telemetry); err != nil {
		errs = append(errs, "telemetry: "+err.Error())
	}
	if len(errs) == 0 {
		return nil
	}
	return errors.New(strings.Join(errs, "\n  "))
}

// checkTelemetry certifies the metrics plane over the full sampled
// series: every exported value is finite, and every counter-backed
// column (counters proper plus cumulative histogram buckets, sums of
// non-negative observations, and counts) is monotonically
// non-decreasing across samples. A decrease means a metric handle was
// rebuilt mid-run or a snapshot raced the emit path — both would poison
// any rate computed from the series.
func checkTelemetry(sm *telemetry.Sampler) error {
	if sm == nil {
		return nil
	}
	cols := sm.Registry().Schema()
	prev := make([]float64, len(cols))
	for si, s := range sm.Samples() {
		// Samples taken before a late-registered metric existed are
		// narrower than the final schema; indexes are registration-order
		// so the prefix still lines up column for column.
		if len(s.V) > len(cols) {
			return fmt.Errorf("sample %d has %d columns, schema has %d", si, len(s.V), len(cols))
		}
		for ci, v := range s.V {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("sample %d (t=%d) column %q: non-finite value %v", si, int64(s.T), cols[ci].Name, v)
			}
			if cols[ci].Kind != "gauge" {
				if v < prev[ci] {
					return fmt.Errorf("sample %d (t=%d) column %q: counter decreased %v -> %v",
						si, int64(s.T), cols[ci].Name, prev[ci], v)
				}
				prev[ci] = v
			}
		}
	}
	for _, v := range sm.Registry().SLO.Violations() {
		if math.IsNaN(v.AchievedBps) || math.IsInf(v.AchievedBps, 0) ||
			math.IsNaN(v.EntitledBps) || math.IsInf(v.EntitledBps, 0) {
			return fmt.Errorf("violation at t=%d on %q: non-finite rates", int64(v.T), v.LinkName)
		}
	}
	return nil
}
