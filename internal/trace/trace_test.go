package trace

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"mccs/internal/allocpin"
	"mccs/internal/freelist"
	"mccs/internal/sim"
)

func opSpan(seq uint64) Span {
	at := sim.Time(time.Duration(seq) * time.Millisecond)
	return Span{
		Kind: KindOp, Op: 0,
		Start: at, End: at.Add(100 * time.Microsecond),
		Host: 0, GPU: int32(seq % 4), Comm: 1, Rank: int32(seq % 4),
		Peer: -1, Channel: -1, Step: -1, Gen: 0, Seq: seq,
		Bytes: 4096, Flow: -1, Src: -1, Dst: -1,
	}
}

func TestRingWrapKeepsNewest(t *testing.T) {
	r := NewRecorder(LevelFull, 4)
	for seq := uint64(1); seq <= 10; seq++ {
		r.Emit(opSpan(seq))
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	if r.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", r.Dropped())
	}
	rec := r.Snapshot()
	for i, sp := range rec.Spans {
		if want := uint64(7 + i); sp.Seq != want {
			t.Errorf("span %d seq = %d, want %d (oldest-first order)", i, sp.Seq, want)
		}
	}
	if rec.Dropped != 6 {
		t.Errorf("Recording.Dropped = %d, want 6", rec.Dropped)
	}
}

func TestLevelsFilterKinds(t *testing.T) {
	full := NewRecorder(LevelFull, 16)
	full.Emit(opSpan(1))
	full.Emit(Span{Kind: KindFlow, Flow: 1})
	full.Emit(Span{Kind: KindStep, Comm: 1})
	if full.Len() != 3 {
		t.Errorf("LevelFull kept %d spans, want 3", full.Len())
	}
	if !full.Enabled(KindOp) || !full.Enabled(KindFlow) {
		t.Error("LevelFull Enabled() wrong")
	}

	off := NewRecorder(LevelOff, 16)
	off.Emit(opSpan(1))
	if off.Len() != 0 || off.Enabled(KindOp) {
		t.Error("LevelOff recorded a span")
	}

	var nilRec *Recorder
	nilRec.Emit(opSpan(1)) // must not panic
	if nilRec.Enabled(KindOp) || nilRec.Len() != 0 {
		t.Error("nil recorder not inert")
	}
}

func testRecording() Recording {
	r := NewRecorder(LevelFull, 64)
	r.SetTopology(
		[]string{"host0", "host1"},
		[]int32{0, 0, 1, 1},
		[]int32{0, 1, -1},
		[]string{"h0-nic0", "h1-nic0", "sw0"},
	)
	r.SetLinks([]LinkMeta{{Name: "h0-nic0->sw0", CapBps: 6.25e9}, {Name: "sw0->h1-nic0", CapBps: 12.5e9}})
	r.NoteComm(1, "bench")

	r.Emit(opSpan(1))
	r.Emit(Span{
		Kind: KindFlow, Op: 0,
		Start: 0, End: sim.Time(time.Millisecond),
		Host: -1, GPU: -1, Comm: 1, Rank: 0, Peer: 1,
		Channel: 0, Gen: 0, Step: 2, Seq: 1,
		Flow: 7, Bytes: 1 << 20, Src: 0, Dst: 1,
		Route: []int32{0, 1},
		Rates: []RateSample{
			{T: 0, Bps: 6e9, Bottleneck: 0, LinkBps: 6e9, ExtBps: 0, CapBps: 6.25e9},
			{T: sim.Time(500 * time.Microsecond), Bps: 3e9, Bottleneck: 1, LinkBps: 12e9, ExtBps: 9e9, CapBps: 12.5e9},
		},
	})
	r.Emit(Span{
		Kind: KindBarrier, Op: PhaseDrain,
		Start: sim.Time(2 * time.Millisecond), End: sim.Time(3 * time.Millisecond),
		Host: 0, GPU: 0, Comm: 1, Rank: 0, Peer: -1, Channel: -1, Step: -1,
		Gen: 0, Seq: 1, Flow: -1, Src: -1, Dst: -1,
	})
	r.Emit(Span{
		Kind: KindKernel, Op: -1,
		Start: 0, End: sim.Time(time.Microsecond),
		Host: -1, GPU: 2, Comm: 0, Rank: -1, Peer: -1, Channel: -1,
		Step: -1, Gen: -1, Flow: 3, Src: -1, Dst: -1, Label: "allreduce",
	})
	return r.Snapshot()
}

func TestChromeRoundTrip(t *testing.T) {
	rec := testRecording()
	var buf bytes.Buffer
	if err := WriteChrome(&buf, rec); err != nil {
		t.Fatal(err)
	}

	// The output must be a plain JSON array of events (what Perfetto and
	// chrome://tracing load).
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	var complete int
	for _, ev := range events {
		if ev["ph"] == "X" {
			complete++
		}
	}
	if complete != len(rec.Spans) {
		t.Errorf("export has %d complete events, want %d", complete, len(rec.Spans))
	}

	back, err := ReadChrome(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Spans) != len(rec.Spans) {
		t.Fatalf("round trip: %d spans, want %d", len(back.Spans), len(rec.Spans))
	}
	if got, want := back.Fingerprint(), rec.Fingerprint(); got != want {
		t.Errorf("round-trip fingerprint %#x != original %#x", got, want)
	}
	if back.Meta.Hosts[1] != "host1" || back.Meta.Links[1].Name != "sw0->h1-nic0" {
		t.Errorf("meta lost in round trip: %+v", back.Meta)
	}
	if back.Meta.CommApp[1] != "bench" {
		t.Errorf("comm app map lost: %+v", back.Meta.CommApp)
	}
	if len(back.Spans[1].Rates) != 2 || back.Spans[1].Rates[1].Bottleneck != 1 {
		t.Errorf("rate samples lost: %+v", back.Spans[1].Rates)
	}
}

func TestExportDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := WriteChrome(&a, testRecording()); err != nil {
		t.Fatal(err)
	}
	if err := WriteChrome(&b, testRecording()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two exports of the same recording differ byte-for-byte")
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	a := testRecording()
	b := testRecording()
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical recordings have different fingerprints")
	}
	b.Spans[0].End += 1
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("fingerprint did not change with a span field")
	}
}

func TestAttributeFindsGatingLink(t *testing.T) {
	rec := testRecording()
	reports := Attribute(rec)
	if len(reports) != 1 {
		t.Fatalf("got %d reports, want 1", len(reports))
	}
	r := reports[0]
	if r.Comm != 1 || r.Seq != 1 || r.App != "bench" {
		t.Errorf("report identity wrong: %+v", r)
	}
	if r.GatingFlow != 7 || r.GatingFrom != 0 || r.GatingTo != 1 {
		t.Errorf("gating flow wrong: %+v", r)
	}
	// The flow spent 500us frozen by link 0 and 500us by link 1: the tie
	// breaks to the lower link ID.
	if r.GatingLink != 0 || r.LinkName != "h0-nic0->sw0" {
		t.Errorf("gating link = %d (%s), want 0 (h0-nic0->sw0)", r.GatingLink, r.LinkName)
	}

	links := ByLink(reports)
	if len(links) != 1 || links[0].OpsGated != 1 {
		t.Errorf("ByLink rollup wrong: %+v", links)
	}

	var sum bytes.Buffer
	if err := Summarize(&sum, rec); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"collectives (1):", "h0-nic0->sw0", "drain"} {
		if !bytes.Contains(sum.Bytes(), []byte(want)) {
			t.Errorf("summary missing %q:\n%s", want, sum.String())
		}
	}
}

// TestEmitDoesNotAllocate is the overhead guarantee: recording must be
// free when disabled and, when enabled, allocate nothing but the ring's
// storage, a chunk at a time (spans are value copies). AllocsPerRun's
// warm-up call lands the first span and with it the first chunk; the
// measured emits are as many as still fit inside that chunk. Amortised, an
// admitted span costs 1/chunkSpans of an allocation until the ring has
// filled once and nothing after (TestRecorderAllocatesByChunk counts the
// bytes).
func TestEmitDoesNotAllocate(t *testing.T) {
	cases := []struct {
		name string
		rec  *Recorder
		kind Kind
	}{
		{"nil", nil, KindOp},
		{"off", NewRecorder(LevelOff, 16), KindOp},
		{"full-kept", NewRecorder(LevelFull, 1<<16), KindStep},
		{"full-wrapped", NewRecorder(LevelFull, 16), KindStep},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			sp := opSpan(1)
			sp.Kind = tc.kind
			if n := testing.AllocsPerRun(chunkSpans-1, func() {
				tc.rec.Emit(sp)
			}); n != 0 {
				t.Errorf("Emit allocates %.1f times per call, want 0", n)
			}
		})
	}
}

// TestRecorderAllocatesByChunk pins what a recorder costs: the chunk
// table up front, then one chunk per chunkSpans spans recorded — not the
// capacity. 1 200 spans in a 32 768-span ring are two chunks (0.33 MB; the
// flat ring zeroed 5.24 MB).
func TestRecorderAllocatesByChunk(t *testing.T) {
	const capacity, emits = 1 << 15, 1200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := NewRecorder(LevelFull, capacity)
	for seq := uint64(0); seq < emits; seq++ {
		r.Emit(opSpan(seq))
	}
	runtime.ReadMemStats(&after)
	chunk := chunkSpans * uint64(unsafe.Sizeof(Span{}))
	table := uint64(capacity/chunkSpans) * uint64(unsafe.Sizeof([]Span(nil)))
	limit := 2*chunk + table + 1024 // the Recorder itself, size-class rounding
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Errorf("NewRecorder(%d) + %d emits allocated %d bytes, want <= %d (two chunks of %d + the table)",
			capacity, emits, got, limit, chunk)
	}
	if r.Len() != emits || r.Dropped() != 0 {
		t.Errorf("Len = %d, Dropped = %d, want %d, 0", r.Len(), r.Dropped(), emits)
	}
}

// flatRing is the recorder's storage as it was before it grew by chunks —
// one preallocated slice — kept as the reference the chunked ring must be
// indistinguishable from.
type flatRing struct {
	buf   []Span
	head  int
	total uint64
}

func (f *flatRing) emit(sp Span) {
	f.total++
	if len(f.buf) < cap(f.buf) {
		f.buf = append(f.buf, sp)
		return
	}
	f.buf[f.head] = sp
	f.head = (f.head + 1) % len(f.buf)
}

// spans returns the held spans oldest-first.
func (f *flatRing) spans() []Span {
	return append(append([]Span{}, f.buf[f.head:]...), f.buf[:f.head]...)
}

// The chunked ring against the flat one: same spans in the same order,
// same Len and Dropped, same Snapshot fingerprint, at every
// checkpoint of a run that wraps the ring several times — for capacities
// below, at, between and above chunk multiples — and a tap that sees every
// admitted span, stored, through a pointer valid for the call.
func TestChunkedRingMatchesFlatRing(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	caps := []int{1, 4, 16, 64, chunkSpans - 1, chunkSpans, chunkSpans + 1, 2*chunkSpans + 476, 3000}
	for i := 0; i < 4; i++ {
		caps = append(caps, 1+rng.Intn(4*chunkSpans))
	}
	for _, capacity := range caps {
		r := NewRecorder(LevelFull, capacity)
		ref := &flatRing{buf: make([]Span, 0, capacity)}
		var tapped uint64
		r.SetTap(func(sp *Span) {
			if want := ref.buf[(ref.head+len(ref.buf)-1)%len(ref.buf)]; !reflect.DeepEqual(*sp, want) {
				t.Fatalf("cap %d: tap saw %+v, ring holds %+v", capacity, *sp, want)
			}
			tapped++
		})
		check := func() {
			t.Helper()
			want := ref.spans()
			var got []Span
			r.Each(func(sp *Span) { got = append(got, *sp) })
			if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("cap %d after %d emits: each order differs from the flat ring", capacity, ref.total)
			}
			if r.Len() != len(want) || r.Dropped() != ref.total-uint64(len(want)) || tapped != ref.total {
				t.Fatalf("cap %d after %d emits: Len %d Dropped %d tapped %d, flat ring holds %d",
					capacity, ref.total, r.Len(), r.Dropped(), tapped, len(want))
			}
			snap := r.Snapshot()
			if snap.Dropped != r.Dropped() || snap.Fingerprint() != (Recording{Spans: want}).Fingerprint() {
				t.Fatalf("cap %d after %d emits: Snapshot differs from the flat ring", capacity, ref.total)
			}
		}
		check()
		for total, seq := capacity*3+rng.Intn(capacity+1), uint64(0); seq < uint64(total); seq++ {
			sp := opSpan(seq)
			if seq%3 == 1 {
				sp.Kind, sp.Route = KindFlow, []int32{int32(seq), 7}
			}
			// The reference first: the tap compares against it.
			ref.emit(sp)
			r.Emit(sp)
			if rng.Intn(capacity/3+1) == 0 {
				check()
			}
		}
		check()
	}
}

// flowSpan is a fabric span with every reference field set: what a chunk
// must not carry into the next recorder.
func flowSpan(seq uint64) Span {
	sp := opSpan(seq)
	sp.Kind, sp.Label = KindFlow, "external"
	sp.Route = []int32{int32(seq), 7}
	sp.Rates = []RateSample{{T: sp.Start, Bps: float64(seq), Bottleneck: 3}}
	return sp
}

// TestReleaseLeavesRecorderEmpty defines the released state: Len and
// Dropped read 0, Snapshot holds no span, Emit records again from an empty
// ring, the metadata stays, and a Recording taken before keeps its spans.
// The chunks given back come out cleared to the next recorder that shares
// the store.
func TestReleaseLeavesRecorderEmpty(t *testing.T) {
	var nilRec *Recorder
	nilRec.Release()

	var store freelist.List[Span]
	for _, capacity := range []int{3 * chunkSpans, chunkSpans + 5, 100} {
		r := NewRecorder(LevelFull, capacity)
		r.SetStore(&store)
		r.NoteComm(1, "app")
		emits := 2*capacity + 7 // wraps the ring
		for seq := uint64(0); seq < uint64(emits); seq++ {
			r.Emit(flowSpan(seq))
		}
		before := r.Snapshot()
		want := before.Fingerprint()
		r.Release()
		if r.Len() != 0 || r.Dropped() != 0 {
			t.Errorf("cap %d: released recorder has Len %d, Dropped %d", capacity, r.Len(), r.Dropped())
		}
		if snap := r.Snapshot(); len(snap.Spans) != 0 || snap.Dropped != 0 || snap.Meta.CommApp[1] != "app" {
			t.Errorf("cap %d: released snapshot holds %d spans, %d dropped, meta %v", capacity, len(snap.Spans), snap.Dropped, snap.Meta.CommApp)
		}
		for _, ch := range r.chunks {
			if ch != nil {
				t.Fatalf("cap %d: a released recorder still holds a chunk", capacity)
			}
		}
		if before.Fingerprint() != want || len(before.Spans) != capacity || before.Spans[0].Route == nil {
			t.Errorf("cap %d: the recording taken before Release changed", capacity)
		}

		// The next recorder takes the cleared chunks; this one records again.
		next := NewRecorder(LevelFull, capacity)
		next.SetStore(&store)
		next.Emit(opSpan(1))
		for i, sp := range next.chunks[0][1:] {
			if !reflect.DeepEqual(sp, Span{}) {
				t.Fatalf("cap %d: slot %d of a reused chunk holds %+v", capacity, i+1, sp)
			}
		}
		next.Release()
		ref := &flatRing{buf: make([]Span, 0, capacity)}
		for seq := uint64(0); seq < uint64(capacity+3); seq++ {
			ref.emit(opSpan(seq))
			r.Emit(opSpan(seq))
		}
		if got := r.Snapshot(); got.Dropped != 3 || got.Fingerprint() != (Recording{Spans: ref.spans()}).Fingerprint() {
			t.Errorf("cap %d: after Release the recorder holds %d spans (%d dropped), not the flat ring's", capacity, len(got.Spans), got.Dropped)
		}
		r.Release()
	}
}

// TestWarmRecorderAllocatesOnlyItsTable pins the chunk store: once a
// released recorder has left a chunk there, a recorder that fills one chunk
// and is released allocates its chunk table and nothing else — not the
// Recorder (NewRecorder is inlined, and the test keeps it on the stack),
// not the chunk.
func TestWarmRecorderAllocatesOnlyItsTable(t *testing.T) {
	var store freelist.List[Span]
	run := func() {
		r := NewRecorder(LevelFull, 4*chunkSpans)
		r.SetStore(&store)
		for seq := uint64(0); seq < chunkSpans; seq++ {
			r.Emit(opSpan(seq))
		}
		r.Release()
	}
	run()
	if n := allocpin.Min(20, run); n != 1 {
		t.Errorf("a warm recorder filling one chunk allocates %v times, want 1 (its chunk table)", n)
	}
}

// TestRecordersShareChunksAcrossGoroutines: recorders of concurrent runs
// take chunks from, and release them to, one shared chunk store; each must
// read back exactly what it recorded. Run it under -race.
func TestRecordersShareChunksAcrossGoroutines(t *testing.T) {
	var store freelist.List[Span]
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 10; round++ {
				r := NewRecorder(LevelFull, 3*chunkSpans)
				r.SetStore(&store)
				n := chunkSpans + round*97 + w
				for seq := 0; seq < n; seq++ {
					sp := flowSpan(uint64(seq))
					sp.Rank = int32(w)
					r.Emit(sp)
				}
				rec := r.Snapshot()
				r.Release()
				if len(rec.Spans) != n {
					t.Errorf("worker %d: %d spans recorded, %d read back", w, n, len(rec.Spans))
					return
				}
				for i := range rec.Spans {
					if sp := &rec.Spans[i]; sp.Rank != int32(w) || sp.Seq != uint64(i) || sp.Route[0] != int32(i) {
						t.Errorf("worker %d: span %d reads rank %d seq %d", w, i, sp.Rank, sp.Seq)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
