package chaos

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"

	"mccs/internal/harness"
	"mccs/internal/mccsd"
	"mccs/internal/orchestrator"
	"mccs/internal/spec"
	"mccs/internal/telemetry"
	"mccs/internal/trace"
	"mccs/internal/workload"
)

// ledger is every collective execution of a drained run: (communicator,
// rank, sequence number) and the generation (ring view) it ran under, read
// from what the run recorded (foldLedger). check certifies the Fig. 4
// guarantee over it: each sequence number executes exactly once on every
// rank, all under one generation. A mixed-generation execution means some
// rank ran an op on the old ring while a peer ran it on the new one —
// exactly the corruption the sequence-number barrier exists to prevent.
type ledger []execRec

type execRec struct {
	comm spec.CommID
	seq  uint64
	rank int
	gen  int
}

// errIncompleteRecording is the generation check failing closed: a
// recorder that dropped spans cannot show that every collective ran.
var errIncompleteRecording = errors.New("the flight recording is incomplete, so the execution ledger cannot be built")

// foldLedger builds a drained run's ledger: one record per KindOp span the
// recorder holds (a collective a rank completed, read in place), then
// begun, the collectives runners began and never finished (begunOps) — a
// deadlocked op completes nowhere, so only its runner still shows it.
func foldLedger(rec *trace.Recorder, begun []execRec) (ledger, error) {
	if n := rec.Dropped(); n > 0 {
		return nil, fmt.Errorf("%w: the recorder dropped %d spans", errIncompleteRecording, n)
	}
	var l ledger
	rec.Each(func(sp *trace.Span) {
		if sp.Kind == trace.KindOp {
			l = append(l, execRec{comm: spec.CommID(sp.Comm), seq: sp.Seq, rank: int(sp.Rank), gen: int(sp.Gen)})
		}
	})
	return append(l, begun...), nil
}

// begunOps returns the collective every runner of the deployment's live
// communicators has begun and not finished, in communicator and rank
// order.
func begunOps(dep *mccsd.Deployment) []execRec {
	var out []execRec
	for _, info := range dep.View() {
		c, _ := dep.Comm(info.ID)
		for rank, r := range c.Runners {
			if seq, ok := r.Executing(); ok {
				out = append(out, execRec{comm: info.ID, seq: seq, rank: rank, gen: r.Generation()})
			}
		}
	}
	return out
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
// all. It sorts the ledger by (comm, seq, rank), stably, and walks it
// once. Duplicate executions are reported first, then op counts in
// communicator order, then the first op with wrong ranks or generations.
func (l ledger) check(want map[spec.CommID]commShape) error {
	slices.SortStableFunc(l, func(a, b execRec) int {
		return cmp.Or(cmp.Compare(a.comm, b.comm), cmp.Compare(a.seq, b.seq), cmp.Compare(a.rank, b.rank))
	})
	var twice []string
	var ranks []execRec // the current op's first record per rank
	var opErr error
	ops := make(map[spec.CommID]int, len(want)) // distinct collectives per communicator
	for i := 0; i < len(l); {
		// l[i:j] is one (comm, seq).
		j := i + 1
		for j < len(l) && l[j].comm == l[i].comm && l[j].seq == l[i].seq {
			j++
		}
		ranks = ranks[:0]
		for k := i; k < j; k++ {
			if e := l[k]; len(ranks) > 0 && ranks[len(ranks)-1].rank == e.rank {
				twice = append(twice, fmt.Sprintf("comm %d rank %d seq %d executed twice (gen %d then %d)",
					e.comm, e.rank, e.seq, ranks[len(ranks)-1].gen, e.gen))
			} else {
				ranks = append(ranks, e)
			}
		}
		ops[l[i].comm]++
		if opErr == nil {
			opErr = checkOp(ranks, want[l[i].comm].ranks)
		}
		i = j
	}
	if len(twice) > 0 {
		return errors.New(strings.Join(twice, "; "))
	}
	comms := make([]spec.CommID, 0, len(ops)+len(want))
	for c := range ops {
		comms = append(comms, c)
	}
	for c := range want {
		if _, ok := ops[c]; !ok {
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
	return opErr
}

// checkOp checks one collective's executions, one per rank in rank order,
// against its communicator's n ranks: no more than n ranks, each of 0..n-1
// present, all in rank 0's generation.
func checkOp(ranks []execRec, n int) error {
	e := ranks[0]
	if len(ranks) > n {
		return fmt.Errorf("comm %d seq %d executed on %d ranks, want %d", e.comm, e.seq, len(ranks), n)
	}
	for r := 0; r < n; r++ {
		if r >= len(ranks) || ranks[r].rank != r {
			return fmt.Errorf("comm %d seq %d never executed on rank %d", e.comm, e.seq, r)
		}
		if g := ranks[r].gen; g != e.gen {
			return fmt.Errorf(
				"comm %d seq %d executed with mixed ring views: rank 0 in gen %d, rank %d in gen %d",
				e.comm, e.seq, e.gen, r, g)
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
//   - generation agreement (ledger.check over foldLedger), which fails
//     closed when the recorder dropped a span;
//   - quiescence: no leaked managed flows on the fabric, and no queued
//     or in-flight work left in any proxy runner;
//   - lifecycle (churn scenarios): the orchestrator drained (every job
//     finished and returned its capacity), and no tenant communicator
//     outlived its teardown (checkChurn).
func checkInvariants(env *harness.Env, sc Scenario, simErr error, rankErrs []error, finished int, scriptComm spec.CommID, orch *orchestrator.Orchestrator, churnJobs []*orchestrator.Job) error {
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
	led, err := foldLedger(trace.Of(env.S), begunOps(env.Deployment))
	if err == nil {
		err = led.check(commShapes(sc, scriptComm, churnJobs))
	}
	if err != nil {
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
	// Only the column kinds are read per run; a column's name is built
	// (through the full Schema) only for the error that reports it.
	kinds := sm.Registry().ColumnKinds(nil)
	name := func(ci int) string { return sm.Registry().Schema()[ci].Name }
	prev := make([]float64, len(kinds))
	for si, s := range sm.Samples() {
		// Samples taken before a late-registered metric existed are
		// narrower than the final schema; indexes are registration-order
		// so the prefix still lines up column for column.
		if len(s.V) > len(kinds) {
			return fmt.Errorf("sample %d has %d columns, schema has %d", si, len(s.V), len(kinds))
		}
		for ci, v := range s.V {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("sample %d (t=%d) column %q: non-finite value %v", si, int64(s.T), name(ci), v)
			}
			if kinds[ci] != telemetry.KindGauge {
				if v < prev[ci] {
					return fmt.Errorf("sample %d (t=%d) column %q: counter decreased %v -> %v",
						si, int64(s.T), name(ci), prev[ci], v)
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
