package harness

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
	"time"

	"mccs/internal/ncclsim"
	"mccs/internal/sim"
	"mccs/internal/spec"
	"mccs/internal/telemetry"
)

func TestFig9QoSOrdering(t *testing.T) {
	run := func(sol QoSSolution) QoSResult {
		res, err := RunQoS(QoSConfig{Solution: sol, IterationsA: 12, IterationsBC: 12})
		if err != nil {
			t.Fatalf("%v: %v", sol, err)
		}
		return res
	}
	ecmp := run(SolutionECMP)
	ffa := run(SolutionFFA)
	pfa := run(SolutionPFA)
	// The PFA+TS run carries telemetry (which schedules nothing), so the
	// controller's own accounting of it can be read back.
	env, err := NewEnv(EnvOptions{System: ncclsim.MCCS, Observers: Observers{TelemetryEvery: time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	defer env.S.Shutdown()
	pfats, err := runQoS(env, QoSConfig{Solution: SolutionPFATS, IterationsA: 12, IterationsBC: 12})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.Of(env.S)
	if n := reg.Counter("mccs_policy_ts_installs_total", "schedules").Value(); n == 0 {
		t.Error("PFA+TS installed no schedule on C")
	}
	// C's schedule is cleared once, through the controller, when B is done.
	if n := reg.Counter("mccs_policy_ts_clears_total", "schedules").Value(); n != 1 {
		t.Errorf("mccs_policy_ts_clears_total = %d, want 1", n)
	}

	for _, app := range []string{"A", "B", "C"} {
		if ecmp.JCT[appID(app)] <= 0 || ffa.JCT[appID(app)] <= 0 {
			t.Fatalf("app %s missing JCT", app)
		}
	}
	// "Fair scheduling speeds up every workload" (paper §6.4): FFA beats
	// ECMP for every tenant.
	for _, app := range []string{"A", "B", "C"} {
		e, f := ecmp.JCT[appID(app)], ffa.JCT[appID(app)]
		if f >= e {
			t.Errorf("%s: FFA JCT %v not better than ECMP %v", app, f, e)
		}
	}
	// Symmetric tenants get symmetric treatment.
	for _, r := range []QoSResult{ecmp, ffa, pfa} {
		ratio := float64(r.JCT["B"]) / float64(r.JCT["C"])
		if ratio < 0.95 || ratio > 1.05 {
			t.Errorf("B/C JCT ratio = %.3f, want ~1", ratio)
		}
	}
	// PFA protects A: better than ECMP, and within a bounded factor of
	// FFA. (The paper reports PFA beating FFA by 13%; under this
	// simulator's strictly work-conserving max-min fabric, FFA already
	// gives A its full share, so PFA's value shows as isolation rather
	// than extra bandwidth — see EXPERIMENTS.md.)
	if pfa.JCT["A"] >= ecmp.JCT["A"] {
		t.Errorf("PFA A JCT %v not better than ECMP %v", pfa.JCT["A"], ecmp.JCT["A"])
	}
	if float64(pfa.JCT["A"]) > 1.2*float64(ffa.JCT["A"]) {
		t.Errorf("PFA A JCT %v too far above FFA %v", pfa.JCT["A"], ffa.JCT["A"])
	}
	// TS speeds up B substantially relative to PFA without TS (paper:
	// 16%)...
	if float64(pfats.JCT["B"]) > 0.92*float64(pfa.JCT["B"]) {
		t.Errorf("PFA+TS did not speed up B: %v vs PFA %v", pfats.JCT["B"], pfa.JCT["B"])
	}
	// ...without touching the PFA-protected tenant A.
	if ratio := float64(pfats.JCT["A"]) / float64(pfa.JCT["A"]); ratio < 0.98 || ratio > 1.02 {
		t.Errorf("PFA+TS changed A: %v vs PFA %v", pfats.JCT["A"], pfa.JCT["A"])
	}
}

func TestFig10DynamicTimeline(t *testing.T) {
	cfg := DynamicConfig{
		T1: 5 * time.Second, T2: 10 * time.Second,
		T3: 15 * time.Second, T4: 20 * time.Second,
		RunFor: 25 * time.Second,
	}
	res, err := RunDynamic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) != 4 {
		t.Fatalf("events = %d", len(res.Events))
	}
	for _, app := range []string{"A", "B", "C"} {
		if len(res.IterEnds[appID(app)]) < 5 {
			t.Fatalf("app %s has only %d iterations", app, len(res.IterEnds[appID(app)]))
		}
	}
	meanIter := func(app string, from, to time.Duration) time.Duration {
		var sum time.Duration
		n := 0
		ends := res.IterEnds[appID(app)]
		times := res.IterTimes[appID(app)]
		for i, e := range ends {
			if e >= simTime(from) && e < simTime(to) {
				sum += times[i]
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return sum / time.Duration(n)
	}
	// A alone is fastest; tenant arrivals slow it down.
	aAlone := meanIter("A", 2*time.Second, 5*time.Second)
	aWithB := meanIter("A", 7*time.Second, 10*time.Second)
	aWithBC := meanIter("A", 12*time.Second, 15*time.Second)
	if !(float64(aAlone) < 0.9*float64(aWithB)) {
		t.Errorf("A alone %v should be markedly faster than with B %v", aAlone, aWithB)
	}
	if !(float64(aAlone) < 0.9*float64(aWithBC)) {
		t.Errorf("A alone %v should be markedly faster than with B+C %v", aAlone, aWithBC)
	}
	// PFA at T3 keeps A protected (bounded around the shared-FFA level;
	// see the Fig. 9 note on PFA under work-conserving fairness).
	aPFA := meanIter("A", 16*time.Second, 20*time.Second)
	if float64(aPFA) > 1.25*float64(aWithBC) {
		t.Errorf("PFA left A unprotected: %v vs %v under FFA", aPFA, aWithBC)
	}
	// TS at T4 speeds B up relative to the PFA period, at C's expense.
	bPFA := meanIter("B", 16*time.Second, 20*time.Second)
	bTS := meanIter("B", 21*time.Second, 25*time.Second)
	if float64(bTS) > 0.95*float64(bPFA) {
		t.Errorf("TS did not improve B: %v vs %v", bTS, bPFA)
	}
	cPFA := meanIter("C", 16*time.Second, 20*time.Second)
	cTS := meanIter("C", 21*time.Second, 25*time.Second)
	if cTS <= cPFA {
		t.Errorf("TS should slow C here: %v vs %v", cTS, cPFA)
	}
}

// small helpers to keep the assertions readable
type appID = spec.AppID

func simTime(d time.Duration) sim.Time { return sim.Time(d) }

// TestRunQoSScheduleIsDeterministic fingerprints the scheduler's (at, seq)
// stream of identical Fig. 9 runs: the same configuration must fire the same
// events, every time. The collector used to wait for the jobs in Go map
// order, so how often it parked — and with it the event count — varied from
// run to run; a handful of repeats gives map iteration room to differ.
func TestRunQoSScheduleIsDeterministic(t *testing.T) {
	cfg := QoSConfig{Solution: SolutionFFA, IterationsA: 2, IterationsBC: 2}
	fingerprint := func() (hash uint64, events int) {
		env, err := NewEnv(EnvOptions{System: ncclsim.MCCS})
		if err != nil {
			t.Fatal(err)
		}
		defer env.S.Shutdown()
		h := fnv.New64a()
		env.S.SetEventObserver(func(at sim.Time, seq uint64, _ sim.EventKind, _ sim.Handler) {
			events++
			var b [16]byte
			binary.LittleEndian.PutUint64(b[:8], uint64(at))
			binary.LittleEndian.PutUint64(b[8:], seq)
			h.Write(b[:])
		})
		if _, err := runQoS(env, cfg); err != nil {
			t.Fatal(err)
		}
		return h.Sum64(), events
	}
	wantHash, wantEvents := fingerprint()
	for i := 0; i < 5; i++ {
		if hash, events := fingerprint(); hash != wantHash || events != wantEvents {
			t.Fatalf("run %d: %d events, hash %#x; first run: %d events, hash %#x", i+1, events, hash, wantEvents, wantHash)
		}
	}
}
