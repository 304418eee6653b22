package chaos

import (
	"bytes"
	"sort"
	"testing"
	"time"

	"mccs/internal/diagnosis"
	"mccs/internal/sim"
	"mccs/internal/trace"
)

// reconfigLag bounds how long after a reconfigure/autotune/remediation
// request its barrier (and hence its incident) may start. Generous: the
// Fig. 4 barrier starts as soon as the drain phase begins.
const reconfigLag = sim.Duration(1500 * time.Microsecond)

// overlaps reports interval overlap; FaultOpenEnd windows extend to the
// end of the run.
func overlaps(aStart, aEnd, bStart, bEnd sim.Time) bool {
	return aStart < bEnd && aEnd > bStart
}

// compatible reports whether incident in is explained by fault window f:
// the class maps to the fault kind, the blamed entity matches, and the
// times line up.
func compatible(in *diagnosis.Incident, f *FaultRecord) bool {
	switch in.Class {
	case diagnosis.ClassSlowGPU:
		return f.Kind == "straggler" && f.Rank == in.Rank &&
			overlaps(in.Start, in.End, f.Start, f.End)
	case diagnosis.ClassCongestedLink:
		return f.Kind == "link-flap" && f.Link == in.Link &&
			overlaps(in.Start, in.End, f.Start, f.End)
	case diagnosis.ClassTenantContention:
		return f.Kind == "congestion" && f.Link == in.Link &&
			overlaps(in.Start, in.End, f.Start, f.End)
	case diagnosis.ClassReconfigStall:
		return (f.Kind == "reconfig" || f.Kind == "autotune" || f.Kind == "remediation") &&
			in.Start >= f.Start && in.Start <= f.Start.Add(reconfigLag)
	case diagnosis.ClassAdmissionQueueing:
		return f.Kind == "churn"
	default: // unknown: any fault window that overlaps can explain it
		return overlaps(in.Start, in.End, f.Start, f.End)
	}
}

// opAgg is the per-(comm,seq) evidence the recall filters recompute from
// the raw recording, independent of the engine's episode bookkeeping.
type opAgg struct {
	start, end sim.Time
	busy       [8]sim.Duration
}

func aggregateOps(rec trace.Recording) map[[2]int64]*opAgg {
	out := map[[2]int64]*opAgg{}
	for i := range rec.Spans {
		sp := &rec.Spans[i]
		if sp.Comm == 0 || (sp.Kind != trace.KindStep && sp.Kind != trace.KindOp) {
			continue
		}
		k := [2]int64{int64(sp.Comm), int64(sp.Seq)}
		a := out[k]
		if a == nil {
			a = &opAgg{start: sp.Start, end: sp.End}
			out[k] = a
		}
		if sp.Start < a.start {
			a.start = sp.Start
		}
		if sp.End > a.end {
			a.end = sp.End
		}
		if sp.Kind == trace.KindStep && sp.Rank >= 0 && sp.Rank < 8 {
			a.busy[sp.Rank] += sp.Busy
		}
	}
	return out
}

// outlierRank applies the detector's straggler rule to one aggregated
// op: the rank with the largest busy/median ratio, if it clears the
// default thresholds.
func outlierRank(a *opAgg) int32 {
	cfg := diagnosis.DefaultConfig()
	var vals []sim.Duration
	for _, b := range a.busy {
		if b > 0 {
			vals = append(vals, b)
		}
	}
	if len(vals) < 3 {
		return -1
	}
	for i := 1; i < len(vals); i++ {
		for j := i; j > 0 && vals[j-1] > vals[j]; j-- {
			vals[j-1], vals[j] = vals[j], vals[j-1]
		}
	}
	med := vals[len(vals)/2]
	if med <= 0 {
		return -1
	}
	best, bestRatio := int32(-1), 0.0
	for r, b := range a.busy {
		if b < cfg.StragglerMinBusy {
			continue
		}
		ratio := float64(b) / float64(med)
		if ratio >= cfg.StragglerRatio && ratio > bestRatio {
			best, bestRatio = int32(r), ratio
		}
	}
	return best
}

// observable reports whether fault window f left enough evidence in the
// recording for any detector to see it: a slowdown needs a whole
// measurable op inside the window with the blamed rank as the busy
// outlier; a flap needs a flow actually rate-limited by the degraded
// link during the window; a reconfigure needs its barrier spans.
// Congestion and send-delay windows are precision-only (remediation can
// reroute traffic before the SLO tracker accumulates enough windows).
func observable(f *FaultRecord, rec trace.Recording, ops map[[2]int64]*opAgg) bool {
	switch f.Kind {
	case "straggler":
		for _, a := range ops {
			if a.start >= f.Start && a.end <= f.End && outlierRank(a) == f.Rank {
				return true
			}
		}
	case "link-flap":
		tol := diagnosis.DefaultConfig().LinkTolerance
		nominal := 0.0
		if int(f.Link) < len(rec.Meta.Links) {
			nominal = rec.Meta.Links[f.Link].CapBps
		}
		if nominal <= 0 {
			return false
		}
		for i := range rec.Spans {
			sp := &rec.Spans[i]
			if sp.Kind != trace.KindFlow {
				continue
			}
			for _, s := range sp.Rates {
				if s.Bottleneck == f.Link && s.CapBps < nominal*(1-tol) &&
					s.T >= f.Start && s.T < f.End {
					return true
				}
			}
		}
	case "reconfig", "autotune", "remediation":
		for i := range rec.Spans {
			sp := &rec.Spans[i]
			if sp.Kind == trace.KindBarrier && sp.Start >= f.Start && sp.Start <= f.Start.Add(reconfigLag) {
				return true
			}
		}
	}
	return false
}

// doctorCorpus is the pinned doctor corpus: each scenario's seeds, and
// the total count of observable fault windows across them (pinned — a
// detector regression that blinds a whole class shows up here as well
// as in recall).
var doctorCorpus = []struct {
	sc             Scenario
	seeds          []uint64
	wantObservable int
}{
	{LinkFlap(), []uint64{1, 2, 3, 4, 5, 6}, 2},
	{DoctorStraggler(), []uint64{1, 2, 3, 4, 5, 6, 7, 8}, 8},
	{ReconfigStorm(), []uint64{1, 2, 3, 4}, 17},
}

// TestDoctorGroundTruth scores the live doctor against the injected
// fault log on a pinned corpus: precision 1.0 (every incident is
// explained by an injected fault of the matching class) and recall 1.0
// (every observably-effective fault window raises an incident of the
// matching class). Scenarios/seeds were swept during development; the
// observable-window counts are asserted so the recall side cannot
// silently go vacuous.
func TestDoctorGroundTruth(t *testing.T) {
	t.Parallel()
	for _, tc := range doctorCorpus {
		totalObservable, totalIncidents := 0, 0
		for _, seed := range tc.seeds {
			dr := RunSeedDiagnosed(tc.sc, seed)
			if dr.Failed() {
				t.Fatalf("%s seed %d: run failed: %v", tc.sc.Name, seed, dr.Err)
			}
			ops := aggregateOps(dr.Recording)
			// Precision: every incident is explained by some fault.
			for i := range dr.Report.Incidents {
				in := &dr.Report.Incidents[i]
				totalIncidents++
				matched := false
				for j := range dr.Faults {
					if compatible(in, &dr.Faults[j]) {
						matched = true
						break
					}
				}
				if !matched {
					t.Errorf("%s seed %d: false positive: incident #%d %s/%s [%v, %v] rank=%d link=%d blamed=%q matches no injected fault",
						tc.sc.Name, seed, in.ID, in.Detector, in.Class, in.Start.Sub(0), in.End.Sub(0), in.Rank, in.Link, in.Blamed)
				}
			}
			// Recall: every observable fault window raised an incident.
			for j := range dr.Faults {
				f := &dr.Faults[j]
				if !observable(f, dr.Recording, ops) {
					continue
				}
				totalObservable++
				matched := false
				for i := range dr.Report.Incidents {
					if compatible(&dr.Report.Incidents[i], f) {
						matched = true
						break
					}
				}
				if !matched {
					t.Errorf("%s seed %d: missed fault: %s left evidence in the trace but no incident matches",
						tc.sc.Name, seed, f)
				}
			}
		}
		if totalObservable != tc.wantObservable {
			t.Errorf("%s: %d observable fault windows across seeds %v, want %d (pinned)",
				tc.sc.Name, totalObservable, tc.seeds, tc.wantObservable)
		}
		t.Logf("%s: %d incidents, %d observable windows, precision==recall==1.0", tc.sc.Name, totalIncidents, totalObservable)
	}
}

// TestReplayMatchesLive replays each corpus run's recording through
// diagnosis.Analyze, as `mccs doctor` does, and requires the incidents
// the live engine raised, field for field except the ID and the detection
// instant (the replay sweeps at span boundaries, not at every instant).
// SLO incidents are left out: the run hands back no telemetry series to
// replay them from.
func TestReplayMatchesLive(t *testing.T) {
	t.Parallel()
	incidents := func(rep *diagnosis.Report) []diagnosis.Incident {
		var out []diagnosis.Incident
		for _, in := range rep.Incidents {
			if in.Detector != diagnosis.DetSLO {
				in.ID, in.Detected = 0, 0
				out = append(out, in)
			}
		}
		sort.SliceStable(out, func(i, j int) bool {
			a, b := &out[i], &out[j]
			if a.Start != b.Start {
				return a.Start < b.Start
			}
			if a.End != b.End {
				return a.End < b.End
			}
			return a.Detector < b.Detector
		})
		return out
	}
	for _, tc := range doctorCorpus {
		for _, seed := range tc.seeds {
			dr := RunSeedDiagnosed(tc.sc, seed)
			if dr.Failed() || dr.Recording.Dropped > 0 {
				t.Fatalf("%s seed %d: run failed (%v) or its ring dropped %d spans", tc.sc.Name, seed, dr.Err, dr.Recording.Dropped)
			}
			live := incidents(dr.Report)
			replay := incidents(diagnosis.Analyze(dr.Recording, nil, diagnosis.DefaultConfig()))
			if len(live) != len(replay) {
				t.Errorf("%s seed %d: live engine raised %d incidents, replay %d", tc.sc.Name, seed, len(live), len(replay))
				continue
			}
			for i := range live {
				if live[i] != replay[i] {
					t.Errorf("%s seed %d: incident %d differs:\n live   %+v\n replay %+v", tc.sc.Name, seed, i, live[i], replay[i])
				}
			}
		}
	}
}

// TestDoctorCleanSeeds pins zero false positives on fault-free runs.
func TestDoctorCleanSeeds(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		dr := RunSeedDiagnosed(Clean(), seed)
		if dr.Failed() {
			t.Fatalf("clean seed %d failed: %v", seed, dr.Err)
		}
		if n := len(dr.Report.Incidents); n != 0 {
			t.Errorf("clean seed %d: %d incidents on a fault-free run: %+v", seed, n, dr.Report.Incidents)
		}
		if len(dr.Faults) != 0 {
			t.Errorf("clean seed %d: fault log not empty: %v", seed, dr.Faults)
		}
	}
}

// TestDoctorScheduleNeutral proves attaching the doctor cannot perturb
// the simulated schedule: every pinned corpus hash reproduces exactly
// with the engine tapping the recorder and sweeping each instant.
func TestDoctorScheduleNeutral(t *testing.T) {
	byName := map[string]Scenario{}
	for _, sc := range Scenarios() {
		byName[sc.Name] = sc
	}
	for _, pin := range pinnedTraceHashes {
		dr := RunSeedDiagnosed(byName[pin.scenario], pin.seed)
		if dr.Failed() {
			t.Errorf("%s seed %d failed with doctor attached: %v", pin.scenario, pin.seed, dr.Err)
			continue
		}
		if dr.TraceHash != pin.hash || dr.Events != pin.events {
			t.Errorf("%s seed %d with doctor attached: hash=%#x events=%d, want hash=%#x events=%d — the doctor perturbed the schedule",
				pin.scenario, pin.seed, dr.TraceHash, dr.Events, pin.hash, pin.events)
		}
	}
}

// TestDoctorReportByteDeterministic pins that two runs of the same seed
// produce byte-identical incident JSONL and text reports.
func TestDoctorReportByteDeterministic(t *testing.T) {
	render := func() ([]byte, []byte) {
		dr := RunSeedDiagnosed(DoctorStraggler(), 3)
		var j, x bytes.Buffer
		if err := dr.Report.WriteJSONL(&j); err != nil {
			t.Fatal(err)
		}
		if err := dr.Report.WriteText(&x); err != nil {
			t.Fatal(err)
		}
		return j.Bytes(), x.Bytes()
	}
	j1, x1 := render()
	j2, x2 := render()
	if !bytes.Equal(j1, j2) {
		t.Errorf("incident JSONL differs between same-seed runs:\n%s\n---\n%s", j1, j2)
	}
	if !bytes.Equal(x1, x2) {
		t.Errorf("text report differs between same-seed runs:\n%s\n---\n%s", x1, x2)
	}
}
