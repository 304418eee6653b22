package transport

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"mccs/internal/netsim"
	"mccs/internal/sim"
	"mccs/internal/spec"
	"mccs/internal/telemetry"
	"mccs/internal/topo"
	"mccs/internal/trace"
)

type rngPicker struct{ rng *rand.Rand }

func (r *rngPicker) Pick(n int) int { return r.rng.Intn(n) }

// newestFirst fires the most recently scheduled same-instant event first,
// so a burst of deliveries landing at one instant arrives exactly reversed.
type newestFirst struct{}

func (newestFirst) Pick(n int) int { return n - 1 }

type oooRun struct {
	seqs   []uint64
	ooo    int64
	events []string
	// backlogged counts receives made while reordered deliveries sat in the
	// stash and messages were still queued behind the in-flight ones.
	backlogged int
}

// runReordered sends messages of the given sizes, in order, over an
// intra-host connection to a receiver written as blocking code or as a step
// function; a zero size is a 10 µs pause instead of a message. One-byte
// messages transmit in no time (the transfer truncates to zero), so the
// deliveries of a run of them land at one instant for pk to reorder, and a
// large one holds the connection while the messages sent after it queue.
func runReordered(t *testing.T, stackless bool, pk sim.Picker, sizes []int64) oooRun {
	t.Helper()
	c, err := topo.BuildClos(topo.TestbedConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New()
	defer s.Shutdown()
	telemetry.Attach(s, telemetry.NewRegistry())
	eng := NewEngine(s, c, netsim.NewFabric(s, c.Net), 0, DefaultConfig(c.IntraHostBps))
	h := c.Hosts[0]
	conn, err := eng.Connect("app", h.NICs[0], h.NICs[1], spec.RouteECMP, 1)
	if err != nil {
		t.Fatal(err)
	}
	var out oooRun
	s.SetPicker(pk)
	s.SetEventObserver(func(at sim.Time, seq uint64, _ sim.EventKind, _ sim.Handler) {
		out.events = append(out.events, fmt.Sprintf("%d/%d", at, seq))
	})
	total := 0
	for _, n := range sizes {
		if n > 0 {
			total++
		}
	}
	got := func(d Delivery) {
		if len(d.Data) != 1 || d.Data[0] != float32(d.Seq) {
			t.Errorf("delivery %d carries %v", d.Seq, d.Data)
		}
		out.seqs = append(out.seqs, d.Seq)
		if len(conn.stash) > 0 && conn.msgs.Len() > conn.started {
			out.backlogged++
		}
	}
	if stackless {
		s.GoStep("recv", func(p *sim.Proc) bool {
			for len(out.seqs) < total {
				d, ok := conn.TryRecv()
				if !ok {
					conn.ParkRecv(p)
					return false
				}
				got(d)
			}
			return true
		})
	} else {
		s.Go("recv", func(p *sim.Proc) {
			for len(out.seqs) < total {
				got(conn.Recv(p))
			}
		})
	}
	s.Go("send", func(p *sim.Proc) {
		sent := 0
		for _, n := range sizes {
			if n == 0 {
				p.Sleep(10 * time.Microsecond)
				continue
			}
			sent++
			conn.Send(n, []float32{float32(sent)}, nil)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("stackless=%v: %v", stackless, err)
	}
	if conn.Pending() != 0 || conn.started != 0 {
		t.Errorf("stackless=%v: %d pending, %d started after the run", stackless, conn.Pending(), conn.started)
	}
	out.ooo = eng.telOOO.Value()
	return out
}

// burst returns n one-byte message sizes.
func burst(n int) []int64 {
	sizes := make([]int64, n)
	for i := range sizes {
		sizes[i] = 1
	}
	return sizes
}

// TestStacklessReceiverResequencesLikeRecv: out-of-order same-instant
// deliveries reach a step-function receiver in send order, and are counted
// in mccs_transport_ooo_deliveries_total, exactly as for Recv(p) — down to
// the scheduler's event stream. Two send patterns: two bursts of eight
// separated by a pause, so each burst is reordered once the connection is
// idle; and a burst of eight, a 1 MB message and a burst of seven, so the
// first burst is reordered while the large message is on the wire and the
// second burst queues behind it, and the second is reordered together with
// the large one's delivery.
func TestStacklessReceiverResequencesLikeRecv(t *testing.T) {
	pickers := map[string]func() sim.Picker{
		"newest-first": func() sim.Picker { return newestFirst{} },
	}
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		pickers[fmt.Sprintf("seed%d", seed)] = func() sim.Picker { return &rngPicker{rng: rand.New(rand.NewSource(seed))} }
	}
	inOrder := make([]uint64, 16)
	for i := range inOrder {
		inOrder[i] = uint64(i + 1)
	}
	scripts := map[string][]int64{
		"idle":    append(append(burst(8), 0), burst(8)...),
		"backlog": append(append(burst(8), 1<<20), burst(7)...),
	}
	for script, sizes := range scripts {
		for name, mk := range pickers {
			name := script + "/" + name
			blocking := runReordered(t, false, mk(), sizes)
			step := runReordered(t, true, mk(), sizes)
			if !reflect.DeepEqual(step.seqs, inOrder) || !reflect.DeepEqual(blocking.seqs, inOrder) {
				t.Errorf("%s: received %v (step) / %v (blocking), want 1..16", name, step.seqs, blocking.seqs)
			}
			if step.ooo != blocking.ooo || step.backlogged != blocking.backlogged {
				t.Errorf("%s: ooo deliveries %d, backlogged receives %d (step) vs %d, %d (blocking)",
					name, step.ooo, step.backlogged, blocking.ooo, blocking.backlogged)
			}
			if strings.HasSuffix(name, "newest-first") && step.ooo != 14 {
				// Each reversed group of 8 stashes all but the one in order.
				t.Errorf("%s: %d ooo deliveries, want 14", name, step.ooo)
			}
			if backlog := step.backlogged > 0; backlog != (script == "backlog") {
				t.Errorf("%s: %d receives of a reordered group while messages were queued", name, step.backlogged)
			}
			if !reflect.DeepEqual(step.events, blocking.events) {
				t.Errorf("%s: observer streams differ:\nblocking %v\nstep     %v", name, blocking.events, step.events)
			}
		}
	}
}

// tagHolder stands in for the proxy's chanRun: a heap object whose tag field
// is passed to Send by address.
type tagHolder struct{ tag trace.FlowTag }

var heapTag *tagHolder

// TestMessagePathAllocations pins the steady-state cost of one message,
// Send to delivery: nothing on either path, tagged or not — no closures, no
// queue regrowth, no copy of the tag made on the heap, and on the inter-host
// path the fabric's Flow is a recycled one (netsim.Fabric.Send).
func TestMessagePathAllocations(t *testing.T) {
	r := newRig(t)
	h0, h2 := r.cluster.Hosts[0], r.cluster.Hosts[2]
	heapTag = &tagHolder{tag: trace.FlowTag{Comm: 1, From: 0, To: 1, Step: 3}}
	for _, tc := range []struct {
		name     string
		src, dst topo.NICID
		tag      *trace.FlowTag
	}{
		{"intra-host", h0.NICs[0], h0.NICs[1], nil},
		{"intra-host tagged", h0.NICs[0], h0.NICs[1], &heapTag.tag},
		{"fabric", h0.NICs[0], h2.NICs[0], nil},
		{"fabric tagged", h0.NICs[0], h2.NICs[0], &heapTag.tag},
	} {
		conn, err := r.engines[0].Connect("app", tc.src, tc.dst, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		message := func() {
			conn.Send(64<<10, nil, tc.tag)
			conn.Send(64<<10, nil, tc.tag) // queues behind the first
			if err := r.s.Run(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				if _, ok := conn.TryRecv(); !ok {
					t.Fatal("message not delivered")
				}
			}
		}
		for i := 0; i < 100; i++ {
			message()
		}
		if n := testing.AllocsPerRun(200, message) / 2; n != 0 {
			t.Errorf("%s: %v allocations per message, want 0", tc.name, n)
		}
	}
}

// TestRecycledFlowSpansAreIndependent: back-to-back messages on one
// connection take turns in the same two recycled netsim.Flows (the next
// message starts inside the previous one's completion callback), yet under
// a LevelFull recorder each emits its own span — its own flow ID, its own
// rate history, not a later message's written over it.
func TestRecycledFlowSpansAreIndependent(t *testing.T) {
	r := newRig(t)
	rec := trace.NewRecorder(trace.LevelFull, trace.DefaultCapacity)
	trace.Attach(r.s, rec)
	h0, h2 := r.cluster.Hosts[0], r.cluster.Hosts[2]
	conn, err := r.engines[0].Connect("app", h0.NICs[0], h2.NICs[0], 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	const messages = 6
	for i := 1; i <= messages; i++ {
		conn.Send(int64(i)<<20, nil, nil)
	}
	if err := r.s.Run(); err != nil {
		t.Fatal(err)
	}
	if r.fabric.FlowsRecycled != messages-2 {
		t.Fatalf("%d flows recycled, want %d", r.fabric.FlowsRecycled, messages-2)
	}
	var flows []trace.Span
	for _, sp := range rec.Snapshot().Spans {
		if sp.Kind == trace.KindFlow {
			flows = append(flows, sp)
		}
	}
	if len(flows) != messages {
		t.Fatalf("%d flow spans, want %d", len(flows), messages)
	}
	for i, sp := range flows {
		if sp.Flow != int64(i+1) || sp.Bytes != int64(i+1)<<20 {
			t.Errorf("span %d: flow %d, %d bytes", i, sp.Flow, sp.Bytes)
		}
		if len(sp.Rates) != 1 || sp.Rates[0].T != sp.Start || sp.Rates[0].Bps <= 0 {
			t.Errorf("span %d (start %v): rate history %+v, want one sample at its start", i, sp.Start, sp.Rates)
		}
		if i > 0 && &sp.Rates[0] == &flows[i-1].Rates[0] {
			t.Errorf("spans %d and %d share a rate history", i-1, i)
		}
		if i > 0 && &sp.Route[0] != &flows[0].Route[0] {
			t.Errorf("span %d has its own copy of the connection's route", i)
		}
	}
}
