package chaos

import (
	"strings"
	"testing"

	"mccs/internal/collective"
	"mccs/internal/orchestrator"
	"mccs/internal/spec"
	"mccs/internal/workload"
)

// TestLedgerHoldsChurnCommsToTheirJob builds execution ledgers by hand:
// a 4-rank script communicator (comm 1, 2 ops) and one 4-GPU churn job
// (comm 7) whose trace has two collective phases and runs 2 iterations,
// so it must execute 4 ops on ranks 0..3. A churn communicator's rank set
// and op count come from its job, not from the ranks that happened to
// run it.
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

	// run records seqs 1..ops of comm on ranks 0..ranks-1, all in gen 0.
	run := func(l *ledger, comm spec.CommID, ranks, ops int) {
		for seq := 1; seq <= ops; seq++ {
			for r := 0; r < ranks; r++ {
				l.observe(comm, r, 0, uint64(seq))
			}
		}
	}
	cases := []struct {
		name  string
		churn func(*ledger)
		err   string // "" for a valid ledger
	}{
		{"job as specified", func(l *ledger) { run(l, churn, 4, 4) }, ""},
		{"ops ran on ranks 0 and 1 only", func(l *ledger) { run(l, churn, 2, 4) }, "never executed on rank 2"},
		{"one op short", func(l *ledger) { run(l, churn, 4, 3) }, "3 distinct collectives executed on comm 7, want 4"},
		{"one op too many", func(l *ledger) { run(l, churn, 4, 5) }, "5 distinct collectives executed on comm 7, want 4"},
		{"a fifth rank", func(l *ledger) { run(l, churn, 5, 4) }, "executed on 5 ranks, want 4"},
		{"unknown communicator", func(l *ledger) { run(l, churn, 4, 4); run(l, 9, 2, 1) }, "comm 9 executed 1 collectives but is neither"},
		{"mixed ring views", func(l *ledger) {
			run(l, churn, 3, 4)
			l.observe(churn, 3, 1, 1) // seq 1 on the new ring, seqs 2..4 on the old one
			for seq := 2; seq <= 4; seq++ {
				l.observe(churn, 3, 0, uint64(seq))
			}
		}, "comm 7 seq 1 executed with mixed ring views"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			l := newLedger()
			run(l, script, 4, 2)
			c.churn(l)
			err := l.check(commShapes(sc, script, jobs))
			switch {
			case c.err == "" && err != nil:
				t.Fatalf("valid ledger rejected: %v", err)
			case c.err != "" && err == nil:
				t.Fatalf("ledger accepted, want an error containing %q", c.err)
			case c.err != "" && !strings.Contains(err.Error(), c.err):
				t.Fatalf("error %q, want it to contain %q", err, c.err)
			}
		})
	}
}
