package diagnosis

import (
	"bytes"
	"testing"
	"time"

	"mccs/internal/sim"
	"mccs/internal/telemetry"
	"mccs/internal/trace"
)

const us = time.Microsecond

// synthOp appends the span stream of one healthy-shaped collective to
// dst: per-rank step spans then per-rank KindOp spans, all ending at
// start+dur. busy[r] is rank r's local GPU time.
func synthOp(dst []trace.Span, comm int32, seq uint64, start sim.Time, dur sim.Duration, busy []sim.Duration, bytes int64) []trace.Span {
	end := start.Add(dur)
	for r := range busy {
		dst = append(dst, trace.Span{
			Kind: trace.KindStep, Op: 0, Start: start, End: end,
			Busy: busy[r], Host: 0, GPU: int32(r),
			Comm: comm, Rank: int32(r), Seq: seq,
		})
	}
	for r := range busy {
		dst = append(dst, trace.Span{
			Kind: trace.KindOp, Op: 0, Start: start, End: end,
			Host: 0, GPU: int32(r),
			Comm: comm, Rank: int32(r), Seq: seq, Bytes: bytes,
		})
	}
	return dst
}

func evenBusy(n int, b sim.Duration) []sim.Duration {
	out := make([]sim.Duration, n)
	for i := range out {
		out[i] = b
	}
	return out
}

func analyzeSpans(t *testing.T, spans []trace.Span) *Report {
	t.Helper()
	rec := trace.Recording{Spans: spans, Meta: trace.Meta{
		Links: []trace.LinkMeta{{Name: "leaf0-spine0", CapBps: 1e10}},
	}}
	return Analyze(rec, nil, DefaultConfig())
}

func TestCleanRunNoIncidents(t *testing.T) {
	var spans []trace.Span
	for seq := uint64(1); seq <= 12; seq++ {
		start := sim.Time(seq) * sim.Time(200*us)
		spans = synthOp(spans, 1, seq, start, 100*us, evenBusy(4, 30*us), 1<<20)
	}
	rep := analyzeSpans(t, spans)
	if len(rep.Incidents) != 0 {
		t.Fatalf("clean run produced %d incidents: %+v", len(rep.Incidents), rep.Incidents)
	}
	if rep.Ops != 12 || rep.Pending != 0 {
		t.Fatalf("ops=%d pending=%d, want 12/0", rep.Ops, rep.Pending)
	}
}

func TestStragglerEpisode(t *testing.T) {
	var spans []trace.Span
	mk := func(seq uint64, hot bool) {
		busy := evenBusy(4, 30*us)
		if hot {
			busy[2] = 75 * us // 2.5x the median
		}
		start := sim.Time(seq) * sim.Time(200*us)
		spans = synthOp(spans, 1, seq, start, 100*us, busy, 1<<20)
	}
	for seq := uint64(1); seq <= 3; seq++ {
		mk(seq, false)
	}
	for seq := uint64(4); seq <= 7; seq++ {
		mk(seq, true)
	}
	mk(8, false) // clean op closes the episode
	rep := analyzeSpans(t, spans)
	if len(rep.Incidents) != 1 {
		t.Fatalf("want 1 straggler incident, got %d: %+v", len(rep.Incidents), rep.Incidents)
	}
	in := rep.Incidents[0]
	if in.Detector != DetStraggler || in.Class != ClassSlowGPU {
		t.Fatalf("got %s/%s, want straggler/slow-gpu", in.Detector, in.Class)
	}
	if in.Rank != 2 || in.GPU != 2 {
		t.Fatalf("blamed rank %d gpu %d, want 2/2", in.Rank, in.GPU)
	}
	if in.Evidence != 4 {
		t.Fatalf("evidence %d, want 4 (one per hot op)", in.Evidence)
	}
	if in.open {
		t.Fatal("episode should have closed on the clean op")
	}
	if in.Confidence <= 0.5 || in.Confidence > 1 {
		t.Fatalf("confidence %v out of range for a 2.5x outlier", in.Confidence)
	}
}

func TestStallWatchdogOnline(t *testing.T) {
	e := newEngine(DefaultConfig())
	feed := func(spans []trace.Span) {
		for i := range spans {
			e.onSpan(&spans[i])
		}
	}
	var spans []trace.Span
	for seq := uint64(1); seq <= 3; seq++ {
		start := sim.Time(seq) * sim.Time(200*us)
		spans = synthOp(spans, 1, seq, start, 100*us, evenBusy(4, 30*us), 1<<20)
	}
	feed(spans)
	e.sweep()
	if len(e.incidents) != 0 {
		t.Fatalf("baseline ops raised %d incidents", len(e.incidents))
	}

	// Op 4 hangs: ranks 0,1,3 complete, rank 2 never reports.
	hangStart := sim.Time(800 * us)
	var hung []trace.Span
	hung = synthOp(hung, 1, 4, hangStart, 100*us, evenBusy(4, 30*us), 1<<20)
	keep := hung[:0]
	for _, sp := range hung {
		if sp.Rank == 2 {
			continue
		}
		keep = append(keep, sp)
	}
	feed(keep)
	e.now = hangStart.Add(350 * us) // baseline mean 100us -> deadline 400us
	e.sweep()
	if len(e.incidents) != 0 {
		t.Fatalf("watchdog fired before the deadline: %+v", e.incidents)
	}
	e.now = hangStart.Add(450 * us)
	e.sweep()
	if len(e.incidents) != 1 {
		t.Fatalf("watchdog incidents = %d, want 1", len(e.incidents))
	}
	in := &e.incidents[0]
	if in.Detector != DetStall || !in.open {
		t.Fatalf("want an open stall incident, got %+v", *in)
	}
	if in.Detected != hangStart.Add(450*us) {
		t.Fatalf("Detected = %v, want the sweep instant", in.Detected)
	}

	// Rank 2 finally completes with a huge busy time: the stall closes
	// and reclassifies as slow-gpu.
	lateEnd := hangStart.Add(500 * us)
	late := []trace.Span{
		{Kind: trace.KindStep, Op: 0, Start: hangStart, End: lateEnd,
			Busy: 430 * us, GPU: 2, Comm: 1, Rank: 2, Seq: 4},
		{Kind: trace.KindOp, Op: 0, Start: hangStart, End: lateEnd,
			GPU: 2, Comm: 1, Rank: 2, Seq: 4, Bytes: 1 << 20},
	}
	feed(late)
	rep := e.Finish()
	// The late completion is also a straggler observation; the stall
	// incident is the first one.
	in = &rep.Incidents[0]
	if in.open || in.Class != ClassSlowGPU || in.Rank != 2 {
		t.Fatalf("closed stall = %+v, want slow-gpu rank 2", *in)
	}
	if in.End != lateEnd {
		t.Fatalf("End = %v, want frozen at completion %v", in.End, lateEnd)
	}
}

func TestDegradedLinkEpisode(t *testing.T) {
	var spans []trace.Span
	t0 := sim.Time(100 * us)
	// An external transfer bottlenecked on link 0 at half its nominal
	// capacity: two samples, then quiet.
	spans = append(spans, trace.Span{
		Kind: trace.KindFlow, Op: -1, Start: t0, End: t0.Add(200 * us),
		Host: -1, GPU: -1, Comm: 0, Rank: -1, Peer: -1, Flow: 7,
		Rates: []trace.RateSample{
			{T: t0, Bps: 4e9, Bottleneck: 0, LinkBps: 5e9, ExtBps: 5e9, CapBps: 5e9},
			{T: t0.Add(100 * us), Bps: 4e9, Bottleneck: 0, LinkBps: 5e9, ExtBps: 5e9, CapBps: 5e9},
		},
	})
	// Later healthy ops push sim time past the quiet gap.
	for seq := uint64(1); seq <= 4; seq++ {
		start := t0.Add(sim.Duration(seq) * 400 * us)
		spans = synthOp(spans, 1, seq, start, 100*us, evenBusy(4, 30*us), 1<<20)
	}
	rep := analyzeSpans(t, spans)
	if len(rep.Incidents) != 1 {
		t.Fatalf("want 1 link incident, got %d: %+v", len(rep.Incidents), rep.Incidents)
	}
	in := rep.Incidents[0]
	if in.Detector != DetLink || in.Class != ClassCongestedLink {
		t.Fatalf("got %s/%s, want link/congested-link", in.Detector, in.Class)
	}
	if in.Link != 0 || in.LinkName != "leaf0-spine0" {
		t.Fatalf("blamed link %d %q", in.Link, in.LinkName)
	}
	if in.open {
		t.Fatal("episode should have closed after the quiet gap")
	}
	if in.Confidence < 0.49 || in.Confidence > 0.51 {
		t.Fatalf("confidence %v, want ~0.5 (cap at 50%% of nominal)", in.Confidence)
	}
	if in.Start != t0 || in.End != t0.Add(200*us) {
		t.Fatalf("incident [%v, %v], want evidence bounds [%v, %v]", in.Start, in.End, t0, t0.Add(200*us))
	}
}

// TestGatingLinkAgreesWithAttribute replays one recording through
// trace.Attribute and Analyze. Op 4 stalls behind competing traffic,
// and which of its flows (and which of that flow's bottlenecks) gated it
// is decided by a tie: two flows ending at the same instant, or one flow
// that spent equal time on two bottlenecks. The stall incident must
// blame the link Attribute names: the longer flow's, the smaller ID.
func TestGatingLinkAgreesWithAttribute(t *testing.T) {
	t0 := sim.Time(800 * us)
	flow := func(id int64, start, end sim.Time, links ...int32) trace.Span {
		sp := trace.Span{Kind: trace.KindFlow, Op: -1, Start: start, End: end,
			Host: -1, GPU: -1, Comm: 1, Rank: 0, Peer: 1, Seq: 4, Flow: id}
		step := end.Sub(start) / sim.Duration(len(links))
		for i, l := range links {
			sp.Rates = append(sp.Rates, trace.RateSample{T: start.Add(sim.Duration(i) * step),
				Bps: 2e9, Bottleneck: l, LinkBps: 1e10, ExtBps: 5e9, CapBps: 1e10})
		}
		return sp
	}
	for _, tc := range []struct {
		name  string
		flows []trace.Span
		want  int32
	}{
		{"flows end together", []trace.Span{
			flow(7, t0, t0.Add(60*us), 1),
			flow(8, t0.Add(20*us), t0.Add(60*us), 2),
		}, 1},
		{"bottlenecks share the flow", []trace.Span{
			flow(9, t0, t0.Add(60*us), 3, 2),
		}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var spans []trace.Span
			for seq := uint64(1); seq <= 3; seq++ {
				spans = synthOp(spans, 1, seq, sim.Time(seq)*sim.Time(200*us), 100*us, evenBusy(4, 30*us), 1<<20)
			}
			spans = append(spans, tc.flows...)
			// An untagged flow moves the clock past op 4's 400 us deadline
			// before its ranks complete.
			spans = append(spans, trace.Span{Kind: trace.KindFlow, Op: -1, Start: t0, End: t0.Add(450 * us), Flow: 10})
			spans = synthOp(spans, 1, 4, t0, 500*us, evenBusy(4, 30*us), 1<<20)
			rec := trace.Recording{Spans: spans, Meta: trace.Meta{Links: []trace.LinkMeta{
				{Name: "l0", CapBps: 1e10}, {Name: "l1", CapBps: 1e10}, {Name: "l2", CapBps: 1e10}, {Name: "l3", CapBps: 1e10},
			}}}

			var attributed int32 = -2
			for _, r := range trace.Attribute(rec) {
				if r.Comm == 1 && r.Seq == 4 {
					attributed = r.GatingLink
				}
			}
			if attributed != tc.want {
				t.Fatalf("trace.Attribute gating link = %d, want %d", attributed, tc.want)
			}
			rep := Analyze(rec, nil, DefaultConfig())
			if len(rep.Incidents) != 1 {
				t.Fatalf("want 1 stall incident, got %+v", rep.Incidents)
			}
			if in := rep.Incidents[0]; in.Detector != DetStall || in.Class != ClassTenantContention || in.Link != attributed {
				t.Fatalf("stall incident %s/%s blames link %d, trace.Attribute link %d", in.Detector, in.Class, in.Link, attributed)
			}
		})
	}
}

func TestReconfigBarrierEpisode(t *testing.T) {
	var spans []trace.Span
	t0 := sim.Time(100 * us)
	for r := int32(0); r < 4; r++ {
		spans = append(spans, trace.Span{
			Kind: trace.KindBarrier, Op: trace.PhaseDrain,
			Start: t0, End: t0.Add(50 * us), Comm: 1, Rank: r, Gen: 2, Seq: 9,
		})
	}
	for seq := uint64(1); seq <= 3; seq++ {
		start := t0.Add(sim.Duration(seq) * 500 * us)
		spans = synthOp(spans, 1, seq, start, 100*us, evenBusy(4, 30*us), 1<<20)
	}
	rep := analyzeSpans(t, spans)
	if len(rep.Incidents) != 1 {
		t.Fatalf("want 1 reconfig incident, got %d: %+v", len(rep.Incidents), rep.Incidents)
	}
	in := rep.Incidents[0]
	if in.Detector != DetReconfig || in.Class != ClassReconfigStall || in.Blamed != "controller" {
		t.Fatalf("got %+v, want reconfig-stall blaming the controller", in)
	}
	if in.Evidence != 4 {
		t.Fatalf("evidence %d, want 4 (one per rank phase span)", in.Evidence)
	}
}

// TestOneReconfigurationOneIncident replays the five Fig. 4 phases of one
// reconfiguration on four ranks the way the proxy emits them: the first
// four under the generation being left, Rebuild under the new one, and a
// completion barrier that waits far longer than QuietGap for the op in
// flight. That is one reconfiguration, so one incident with all twenty
// phase spans as evidence, named for the generation it builds.
func TestOneReconfigurationOneIncident(t *testing.T) {
	var spans []trace.Span
	for seq := uint64(1); seq <= 3; seq++ {
		spans = synthOp(spans, 1, seq, sim.Time(seq)*sim.Time(200*us), 100*us, evenBusy(4, 30*us), 1<<20)
	}
	t0 := sim.Time(1000 * us)
	phase := func(op int32, gen int32, start, end sim.Duration) {
		for r := int32(0); r < 4; r++ {
			spans = append(spans, trace.Span{Kind: trace.KindBarrier, Op: op,
				Start: t0.Add(start), End: t0.Add(end), Comm: 1, Rank: r, Gen: gen, Seq: 3})
		}
	}
	phase(trace.PhaseSeqExchange, 0, 0, 5*us)
	phase(trace.PhaseDrain, 0, 5*us, 10*us)
	// Unrelated traffic moves the clock while the barrier waits.
	spans = append(spans, trace.Span{Kind: trace.KindFlow, Op: -1, Start: t0, End: t0.Add(5000 * us), Flow: 1})
	phase(trace.PhaseCompletion, 0, 10*us, 10000*us)
	phase(trace.PhaseTeardown, 0, 10000*us, 10100*us)
	phase(trace.PhaseRebuild, 1, 10100*us, 10300*us)
	spans = append(spans, trace.Span{Kind: trace.KindFlow, Op: -1, Start: t0, End: t0.Add(20000 * us), Flow: 2})

	rep := analyzeSpans(t, spans)
	if len(rep.Incidents) != 1 {
		t.Fatalf("one reconfiguration raised %d incidents: %+v", len(rep.Incidents), rep.Incidents)
	}
	in := rep.Incidents[0]
	if in.Class != ClassReconfigStall || in.Evidence != 20 || in.Detail != "reconfiguration to generation 1" {
		t.Fatalf("got %s evidence %d %q, want reconfig-stall evidence 20 \"reconfiguration to generation 1\"", in.Class, in.Evidence, in.Detail)
	}
	if in.Start != t0 || in.End != t0.Add(10300*us) || in.open {
		t.Fatalf("incident [%v, %v] open=%v, want closed over [%v, %v]", in.Start, in.End, in.open, t0, t0.Add(10300*us))
	}
}

func TestSLOBreachEpisode(t *testing.T) {
	var spans []trace.Span
	for seq := uint64(1); seq <= 3; seq++ {
		start := sim.Time(seq) * sim.Time(300*us)
		spans = synthOp(spans, 1, seq, start, 100*us, evenBusy(4, 30*us), 1<<20)
	}
	win := sim.Duration(100 * us)
	mkv := func(at sim.Duration, deficit float64) telemetry.Violation {
		return telemetry.Violation{
			T: sim.Time(at), Window: win, Tenant: "tenant-a",
			Link: 0, LinkName: "leaf0-spine0",
			AchievedBps: (1 - deficit) * 5e9, EntitledBps: 5e9, DeficitBps: deficit * 5e9,
		}
	}
	se := &telemetry.Series{Violations: []telemetry.Violation{
		mkv(400*us, 0.05), // below SLOMinDeficit: ignored
		mkv(500*us, 0.6),
		mkv(600*us, 0.7), // second window: incident opens
		mkv(700*us, 0.5),
	}}
	rec := trace.Recording{Spans: spans, Meta: trace.Meta{
		Links: []trace.LinkMeta{{Name: "leaf0-spine0", CapBps: 1e10}},
	}}
	rep := Analyze(rec, se, DefaultConfig())
	if len(rep.Incidents) != 1 {
		t.Fatalf("want 1 SLO incident, got %d: %+v", len(rep.Incidents), rep.Incidents)
	}
	in := rep.Incidents[0]
	if in.Detector != DetSLO || in.Class != ClassTenantContention {
		t.Fatalf("got %s/%s, want slo/tenant-contention", in.Detector, in.Class)
	}
	if in.Tenant != "tenant-a" || in.Link != 0 {
		t.Fatalf("scope tenant=%q link=%d", in.Tenant, in.Link)
	}
	if in.Evidence != 3 {
		t.Fatalf("evidence %d, want 3 qualifying windows", in.Evidence)
	}
	if in.Confidence != 0.7 {
		t.Fatalf("confidence %v, want max deficit share 0.7", in.Confidence)
	}
}

func TestAdmissionQueueIncident(t *testing.T) {
	spans := []trace.Span{
		{Kind: trace.KindSched, Op: trace.SchedQueue, Start: 0,
			End: sim.Time(300 * us), Seq: 41, Label: "tenant-b"}, // under floor
		{Kind: trace.KindSched, Op: trace.SchedQueue, Start: 0,
			End: sim.Time(2000 * us), Seq: 42, Label: "tenant-c"},
	}
	rep := analyzeSpans(t, spans)
	if len(rep.Incidents) != 1 {
		t.Fatalf("want 1 queue incident, got %d: %+v", len(rep.Incidents), rep.Incidents)
	}
	in := rep.Incidents[0]
	if in.Detector != DetQueue || in.Class != ClassAdmissionQueueing {
		t.Fatalf("got %s/%s, want queue/admission-queueing", in.Detector, in.Class)
	}
	if in.Tenant != "tenant-c" || in.Seq != 42 || in.open {
		t.Fatalf("incident %+v, want closed, tenant-c, job 42", in)
	}
}

func TestJSONLDeterministicAndGoldenText(t *testing.T) {
	var spans []trace.Span
	busy := evenBusy(4, 30*us)
	for seq := uint64(1); seq <= 3; seq++ {
		start := sim.Time(seq) * sim.Time(200*us)
		spans = synthOp(spans, 1, seq, start, 100*us, busy, 1<<20)
	}
	hot := evenBusy(4, 30*us)
	hot[1] = 90 * us
	spans = synthOp(spans, 1, 4, sim.Time(800*us), 160*us, hot, 1<<20)
	spans = synthOp(spans, 1, 5, sim.Time(1000*us), 100*us, busy, 1<<20)

	run := func() *bytes.Buffer {
		rec := trace.Recording{Spans: spans, Meta: trace.Meta{
			Links:   []trace.LinkMeta{{Name: "leaf0-spine0", CapBps: 1e10}},
			CommApp: map[int32]string{1: "tenant-a"},
		}}
		rep := Analyze(rec, nil, DefaultConfig())
		var buf bytes.Buffer
		if err := rep.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return &buf
	}
	a, b := run(), run()
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("incident JSONL not byte-deterministic:\n%s\n---\n%s", a, b)
	}

	rec := trace.Recording{Spans: spans, Meta: trace.Meta{
		Links:   []trace.LinkMeta{{Name: "leaf0-spine0", CapBps: 1e10}},
		CommApp: map[int32]string{1: "tenant-a"},
	}}
	rep := Analyze(rec, nil, DefaultConfig())
	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	const golden = `MCCS DOCTOR REPORT
  horizon 1.1ms | 40 spans | 5 ops closed, 0 pending | 6 sweeps
  1 incidents: slow-gpu 1

INCIDENTS
  #0   straggler slow-gpu           800µs - 960µs (160µs)
       blamed: rank 1 (gpu 1) (confidence 0.67, evidence 1)
       scope: tenant tenant-a comm 1 seq 4
       busy 3.0x the cross-rank median
`
	if got := buf.String(); got != golden {
		t.Fatalf("text report drifted:\n--- got ---\n%s\n--- want ---\n%s", got, golden)
	}
}

func TestDroppedWarningInText(t *testing.T) {
	rep := &Report{Dropped: 123}
	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("WARNING: 123 spans dropped")) {
		t.Fatalf("no dropped-span warning in:\n%s", buf.String())
	}
}

// TestSteadyStateNoAllocs pins the no-incident detection path at zero
// allocations per op once the pools and maps are warm.
func TestSteadyStateNoAllocs(t *testing.T) {
	e := newEngine(DefaultConfig())
	seq := uint64(0)
	now := sim.Time(0)
	runOp := func() {
		seq++
		now = now.Add(200 * us)
		start, end := now, now.Add(100*us)
		for r := int32(0); r < 4; r++ {
			sp := trace.Span{Kind: trace.KindStep, Op: 0, Start: start, End: end,
				Busy: 30 * us, GPU: r, Comm: 1, Rank: r, Seq: seq}
			e.onSpan(&sp)
		}
		for r := int32(0); r < 4; r++ {
			sp := trace.Span{Kind: trace.KindOp, Op: 0, Start: start, End: end,
				GPU: r, Comm: 1, Rank: r, Seq: seq, Bytes: 1 << 20}
			e.onSpan(&sp)
		}
		e.sweep()
	}
	for i := 0; i < 32; i++ {
		runOp()
	}
	if allocs := testing.AllocsPerRun(200, runOp); allocs != 0 {
		t.Fatalf("steady-state detection path allocates %.1f/op, want 0", allocs)
	}
	if len(e.incidents) != 0 {
		t.Fatalf("healthy stream raised %d incidents", len(e.incidents))
	}
}
