package chaos

import (
	"bytes"
	"crypto/sha256"
	"testing"

	"mccs/internal/remediation"
	"mccs/internal/trace"
)

// coldWarmCases are the runs TestColdAndWarmRunsAgree repeats on one
// scratch: a diagnosed corpus run under external congestion, whose chunks
// hold flow spans with Route, Rates and Label set when the second run takes
// them over, and a self-heal run.
var coldWarmCases = []struct {
	name string
	run  func(*runScratch) DoctorRun
	// labeled requires a flow span with Route, Rates and Label set.
	labeled bool
}{
	{"reconfig-storm/2", func(mem *runScratch) DoctorRun {
		res, dr := runSeed(ReconfigStorm(), 2, runOpts{doctor: true, scratch: mem})
		dr.Result = res
		return *dr
	}, true},
	{"self-heal/1", func(mem *runScratch) DoctorRun {
		res, dr := runSeed(SelfHeal(), 1, runOpts{doctor: true, heal: true, healCfg: remediation.DefaultConfig(), scratch: mem})
		dr.Result = res
		return *dr
	}, false},
}

// runDigest is what a run's reuse of scratch memory must leave unchanged.
type runDigest struct {
	hash   uint64
	events int
	err    string
	chrome [sha256.Size]byte // the recording's Chrome export
	spans  int
	report string
}

func digestOf(t *testing.T, dr DoctorRun) runDigest {
	t.Helper()
	d := runDigest{hash: dr.TraceHash, events: dr.Events, spans: len(dr.Recording.Spans)}
	if dr.Err != nil {
		d.err = dr.Err.Error()
	}
	var chrome bytes.Buffer
	if err := trace.WriteChrome(&chrome, dr.Recording); err != nil {
		t.Fatal(err)
	}
	d.chrome = sha256.Sum256(chrome.Bytes())
	var rep bytes.Buffer
	if err := dr.Report.WriteText(&rep); err != nil {
		t.Fatal(err)
	}
	d.report = rep.String()
	return d
}

// TestColdAndWarmRunsAgree: a run's device backings, trace chunks and
// message snapshots go back to its deployment's scratch when its
// environment closes, and the next run sharing the scratch takes from it.
// Each case runs twice on a fresh scratch — first on empty stores, then on
// the ones the first run filled — and both runs must give the same Result
// (trace hash, events, error), the same recording (its Chrome export,
// every span field) and the same doctor report: a store that handed one
// slice out twice would corrupt the warm run.
func TestColdAndWarmRunsAgree(t *testing.T) {
	for _, c := range coldWarmCases {
		mem := new(runScratch)
		cold := c.run(mem)
		if !holdsFlowSpan(cold.Recording, c.labeled) {
			t.Fatalf("%s: no flow span with Route and Rates (and Label: %v) set", c.name, c.labeled)
		}
		a, b := digestOf(t, cold), digestOf(t, c.run(mem))
		if a != b {
			t.Errorf("%s: cold run %+v\nwarm run %+v", c.name, a, b)
		}
		t.Logf("%s: hash %#x events %d spans %d err %q", c.name, a.hash, a.events, a.spans, a.err)
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
