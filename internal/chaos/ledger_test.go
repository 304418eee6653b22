package chaos

import (
	"errors"
	"strings"
	"testing"

	"mccs/internal/collective"
	"mccs/internal/orchestrator"
	"mccs/internal/spec"
	"mccs/internal/trace"
	"mccs/internal/workload"
)

// TestLedgerHoldsChurnCommsToTheirJob builds execution ledgers by hand,
// through the fold a run's ledger comes from: KindOp spans in a flight
// recorder for the collectives ranks completed, and begun records for the
// ones a runner began and never finished. A 4-rank script communicator
// (comm 1, 2 ops) and one 4-GPU churn job (comm 7) whose trace has two
// collective phases and runs 2 iterations, so it must execute 4 ops on
// ranks 0..3. A churn communicator's rank set and op count come from its
// job, not from the ranks that happened to run it.
func TestLedgerHoldsChurnCommsToTheirJob(t *testing.T) {
	const script, churn = spec.CommID(1), spec.CommID(7)
	sc := Scenario{Ranks: 4, Ops: 2}
	tr := workload.Trace{Phases: []workload.Phase{
		{Kind: workload.Compute},
		{Kind: workload.Collective, Op: collective.AllReduce, Bytes: 1 << 10},
		{Kind: workload.Compute},
		{Kind: workload.Collective, Op: collective.AllReduce, Bytes: 1 << 10},
	}}
	jobs := []*orchestrator.Job{{CommID: churn, Spec: orchestrator.JobSpec{GPUs: 4, Iterations: 2, Trace: tr}}}

	// A run under test: what its recorder holds and what its runners
	// began and never finished.
	type run struct {
		rec   *trace.Recorder
		begun []execRec
	}
	// done records one completed collective as its runner does.
	done := func(r *run, comm spec.CommID, rank, gen int, seq uint64) {
		r.rec.Emit(trace.Span{Kind: trace.KindOp, Comm: int32(comm), Rank: int32(rank), Gen: int32(gen), Seq: seq})
	}
	// ops completes seqs 1..n of comm on ranks 0..ranks-1, all in gen 0.
	ops := func(r *run, comm spec.CommID, ranks, n int) {
		for seq := 1; seq <= n; seq++ {
			for rank := 0; rank < ranks; rank++ {
				done(r, comm, rank, 0, uint64(seq))
			}
		}
	}
	cases := []struct {
		name  string
		churn func(*run)
		err   string // "" for a valid ledger
	}{
		{"job as specified", func(r *run) { ops(r, churn, 4, 4) }, ""},
		{"ops ran on ranks 0 and 1 only", func(r *run) { ops(r, churn, 2, 4) }, "never executed on rank 2"},
		{"one op short", func(r *run) { ops(r, churn, 4, 3) }, "3 distinct collectives executed on comm 7, want 4"},
		{"one op too many", func(r *run) { ops(r, churn, 4, 5) }, "5 distinct collectives executed on comm 7, want 4"},
		{"a fifth rank", func(r *run) { ops(r, churn, 5, 4) }, "executed on 5 ranks, want 4"},
		{"unknown communicator", func(r *run) { ops(r, churn, 4, 4); ops(r, 9, 2, 1) }, "comm 9 executed 1 collectives but is neither"},
		{"mixed ring views", func(r *run) {
			ops(r, churn, 3, 4)
			done(r, churn, 3, 1, 1) // seq 1 on the new ring, seqs 2..4 on the old one
			for seq := 2; seq <= 4; seq++ {
				done(r, churn, 3, 0, uint64(seq))
			}
		}, "comm 7 seq 1 executed with mixed ring views"},
		{"dropped spans", func(r *run) {
			ops(r, churn, 4, 4)
			// A ring of 32 spans holds the script's 8 and the job's 16; 9
			// more completions wrap it, and the check must refuse to judge.
			ops(r, 9, 3, 3)
		}, "the recorder dropped 1 spans"},
		{"begun under a new ring, completed on its peers under the old", func(r *run) {
			ops(r, churn, 4, 3)
			for rank := 0; rank < 3; rank++ {
				done(r, churn, rank, 0, 4)
			}
			// Rank 3 began seq 4 in gen 1 and never finished it: no span
			// shows it, only the runner.
			r.begun = append(r.begun, execRec{comm: churn, seq: 4, rank: 3, gen: 1})
		}, "comm 7 seq 4 executed with mixed ring views: rank 0 in gen 0, rank 3 in gen 1"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := &run{rec: trace.NewRecorder(trace.LevelFull, 32)}
			ops(r, script, 4, 2)
			c.churn(r)
			l, err := foldLedger(r.rec, r.begun)
			if err == nil {
				err = l.check(commShapes(sc, script, jobs))
			}
			switch {
			case c.err == "" && err != nil:
				t.Fatalf("valid ledger rejected: %v", err)
			case c.err != "" && err == nil:
				t.Fatalf("ledger accepted, want an error containing %q", c.err)
			case c.err != "" && !strings.Contains(err.Error(), c.err):
				t.Fatalf("error %q, want it to contain %q", err, c.err)
			}
			if dropped := strings.Contains(c.err, "dropped"); errors.Is(err, errIncompleteRecording) != dropped {
				t.Fatalf("error %q: errors.Is(errIncompleteRecording) = %v, want %v", err, !dropped, dropped)
			}
		})
	}
}
