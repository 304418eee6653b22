package chaos

import (
	"math/rand"
	"strings"
	"testing"
)

// TestCheckDataShortBuffer: a buffer shorter than the table it is checked
// against is a data error naming both lengths, not an index panic (on the
// verifier's goroutine a panic would take the whole process down).
func TestCheckDataShortBuffer(t *testing.T) {
	err := checkData("recv", make([]float32, 3), []uint8{0, 0, 0, 0})
	if err == nil || !strings.Contains(err.Error(), "recv holds 3 elements, want 4") {
		t.Fatalf("short buffer: %v, want a data error naming 3 and 4 elements", err)
	}
	if err := checkData("recv", make([]float32, 5), []uint8{0, 0, 0, 0}); err != nil {
		t.Fatalf("a longer buffer is checked on its prefix: %v", err)
	}
}

// TestCheckerRecoversPanics: a panic on either checker goroutine becomes
// an error of the run. A MaxCount under 16 makes buildOp's count draw
// panic on the producer; an op index past the script panics in the
// verifier's check.
func TestCheckerRecoversPanics(t *testing.T) {
	sc := Scenario{Ranks: 2, Ops: 2, MaxCount: 10}
	c := startChecker(sc, rand.New(rand.NewSource(1)), nil)
	if _, err := c.op(0); err == nil || !strings.Contains(err.Error(), "script producer panicked") {
		t.Errorf("op(0) with a panicking producer: %v", err)
	}
	c.hand(1, 7, nil, nil)
	failed := c.join()
	if f := failed[1]; f.idx != 7 || f.err == nil || !strings.Contains(f.err.Error(), "rank 1 op 7: verifier panicked") {
		t.Errorf("rank 1 after a panicking check: op %d, %v", f.idx, f.err)
	}
	if f := failed[0]; f.err != nil {
		t.Errorf("rank 0 handed nothing but failed: %v", f.err)
	}
	c.join() // idempotent
}

// TestFailingRunsAreDeterministic scribbles on finished buffers (after
// the op completed, before the verifier sees them) and requires the run
// to fail with the same text twice: the verifier's verdict must not depend
// on when it got to each op. Rank 1's ops 2 and 5 both fail, and the lower
// index is the one reported. Ranks go on issuing after a bad result, so
// the schedule is the clean run's.
func TestFailingRunsAreDeterministic(t *testing.T) {
	sc := ReconfigStorm()
	clean := RunSeed(sc, 1)
	if clean.Failed() {
		t.Fatalf("clean run: %v", clean)
	}
	scribble := func(rank, idx int, recv, send []float32) {
		switch {
		case rank == 1 && (idx == 2 || idx == 5):
			recv[idx] = 99
		case rank == 2 && idx == 0:
			send[1] = 99
		}
	}
	var texts []string
	for run := 0; run < 2; run++ {
		res, _ := runSeed(sc, 1, runOpts{tamper: scribble})
		if res.Err == nil {
			t.Fatalf("run %d: scribbled results passed", run)
		}
		if res.TraceHash != clean.TraceHash || res.Events != clean.Events {
			t.Errorf("run %d: hash=%#x events=%d, clean run hash=%#x events=%d", run, res.TraceHash, res.Events, clean.TraceHash, clean.Events)
		}
		texts = append(texts, res.Err.Error())
	}
	got := texts[0]
	if texts[1] != got {
		t.Fatalf("same failing run, different errors:\n%s\n---\n%s", got, texts[1])
	}
	for _, want := range []string{"rank 1 op 2 (", "recv element 2 = 99", "rank 2 op 0 (", "send element 1 = 99"} {
		if !strings.Contains(got, want) {
			t.Errorf("error lacks %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "rank 1 op 5") {
		t.Errorf("rank 1's higher failing op reported:\n%s", got)
	}
	if n := strings.Count(got, "\n"); n != 1 {
		t.Errorf("want exactly the two data lines, got %d lines:\n%s", n+1, got)
	}
}
