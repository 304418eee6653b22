package chaos

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"testing"

	"mccs/internal/trace"
)

// coldWarmArg, given to the test binary after its flags with a case index,
// makes TestColdAndWarmRunsAgree run that case in the fresh process instead
// of spawning one per case.
const coldWarmArg = "cold-warm"

// coldWarmCases are the runs TestColdAndWarmRunsAgree repeats: a diagnosed
// corpus run under external congestion, whose chunks hold flow spans with
// Route, Rates and Label set when the second run takes them over, and a
// self-heal run.
var coldWarmCases = []struct {
	name string
	run  func() DoctorRun
	// labeled requires a flow span with Route, Rates and Label set.
	labeled bool
}{
	{"reconfig-storm/2", func() DoctorRun { return RunSeedDiagnosed(ReconfigStorm(), 2) }, true},
	{"self-heal/1", func() DoctorRun {
		hr := RunSeedHealed(SelfHeal(), 1)
		return DoctorRun{Result: hr.Result, Report: hr.Doctor, Recording: hr.Recording}
	}, false},
}

// runDigest is what a run's reuse of scratch memory must leave unchanged.
type runDigest struct {
	hash        uint64
	events      int
	err         string
	fingerprint uint64
	spans       int
	report      string
}

func digestOf(t *testing.T, dr DoctorRun) runDigest {
	t.Helper()
	d := runDigest{hash: dr.TraceHash, events: dr.Events, fingerprint: dr.Recording.Fingerprint(), spans: len(dr.Recording.Spans)}
	if dr.Err != nil {
		d.err = dr.Err.Error()
	}
	var rep bytes.Buffer
	if err := dr.Report.WriteText(&rep); err != nil {
		t.Fatal(err)
	}
	d.report = rep.String()
	return d
}

// TestColdAndWarmRunsAgree: a run's device backings, trace chunks and
// message snapshots go back to process-wide stores when its environment
// closes, and the next run takes from them. Each case runs twice in a
// fresh process — first on empty stores, then on the ones the first run
// filled — and both runs must give the same Result (trace hash, events,
// error), the same recording fingerprint and the same doctor report.
func TestColdAndWarmRunsAgree(t *testing.T) {
	if flag.Arg(0) == coldWarmArg {
		i, err := strconv.Atoi(flag.Arg(1))
		if err != nil || i < 0 || i >= len(coldWarmCases) {
			t.Fatalf("bad case index %q", flag.Arg(1))
		}
		c := coldWarmCases[i]
		cold := c.run()
		if !holdsFlowSpan(cold.Recording, c.labeled) {
			t.Fatalf("%s: no flow span with Route and Rates (and Label: %v) set", c.name, c.labeled)
		}
		a, b := digestOf(t, cold), digestOf(t, c.run())
		if a != b {
			t.Fatalf("%s: cold run %+v\nwarm run %+v", c.name, a, b)
		}
		fmt.Printf("%s: hash %#x events %d spans %d: cold and warm agree\n", c.name, a.hash, a.events, a.spans)
		return
	}
	for i, c := range coldWarmCases {
		cmd := exec.Command(os.Args[0], "-test.run=^TestColdAndWarmRunsAgree$", coldWarmArg, strconv.Itoa(i))
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Errorf("%s in a fresh process: %v\n%s", c.name, err, out)
			continue
		}
		if !bytes.Contains(out, []byte(c.name+": hash")) {
			t.Errorf("%s in a fresh process ran no case:\n%s", c.name, out)
		}
	}
}

// holdsFlowSpan reports whether rec has a flow span with Route and Rates
// set, and Label too when labeled.
func holdsFlowSpan(rec trace.Recording, labeled bool) bool {
	for i := range rec.Spans {
		if sp := &rec.Spans[i]; sp.Kind == trace.KindFlow && sp.Route != nil && sp.Rates != nil && (sp.Label != "" || !labeled) {
			return true
		}
	}
	return false
}
