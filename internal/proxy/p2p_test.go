package proxy

import (
	"fmt"
	"math/rand"
	"testing"

	"mccs/internal/collective"
	"mccs/internal/gpusim"
	"mccs/internal/sim"
	"mccs/internal/spec"
	"mccs/internal/trace"
)

// rngPicker fires same-instant events in a seeded random order.
type rngPicker struct{ rng *rand.Rand }

func (pk *rngPicker) Pick(n int) int { return pk.rng.Intn(n) }

// TestP2PProperty: point-to-point transfers of random sizes between random
// pairs — intra- and inter-host — pipelined between AllReduces on the same
// communicator, with same-instant events fired in a seeded random order,
// deliver bit-exact data, execute in issue order on every rank and leave
// nothing behind. Every rank gets its whole share of the script up front, so
// a transfer really does queue behind, and ahead of, collectives.
func TestP2PProperty(t *testing.T) {
	// Counts below MaxSlices and not divisible by it, slice boundaries, and
	// one large transfer per run (up to 4 Mi elements).
	small := []int64{1, 2, 3, 5, 7, 8, 9, 13, 1000, 4099, 131072 + 3}
	for seed := int64(1); seed <= 6; seed++ {
		channels := 1 + int(seed%2)
		t.Run(fmt.Sprintf("seed%d/%dch", seed, channels), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			r := newRig(t)
			r.s.SetPicker(&rngPicker{rng: rand.New(rand.NewSource(seed * 977))})
			rec := trace.NewRecorder(trace.LevelFull, 1024)
			spans := map[trace.Kind]int{}
			var completed [][]trace.Span // per rank, in completion order
			rec.SetTap(func(sp *trace.Span) {
				spans[sp.Kind]++
				if sp.Kind == trace.KindOp || sp.Kind == trace.KindP2P {
					for int(sp.Rank) >= len(completed) {
						completed = append(completed, nil)
					}
					completed[sp.Rank] = append(completed[sp.Rank], *sp)
				}
				if sp.Kind == trace.KindStep && sp.Channel < 0 {
					t.Errorf("point-to-point step traced as a collective step: %+v", *sp)
				}
			})
			trace.Attach(r.s, rec)

			gpus := r.allGPUs() // two per host: ranks 2h and 2h+1 share a host
			n := len(gpus)
			info := spec.CommInfo{ID: 3, App: "p2p"}
			order := make([]int, n)
			for i, g := range gpus {
				order[i] = i
				info.Ranks = append(info.Ranks, spec.RankInfo{
					Rank: i, GPU: g, Host: r.cluster.HostOfGPU(g), NIC: r.cluster.NICOfGPU(g),
				})
			}
			for ci := 0; ci < channels; ci++ {
				info.Strategy.Channels = append(info.Strategy.Channels, spec.ChannelSpec{Order: order, Route: ci})
			}
			cfg := DefaultConfig()
			if seed%3 != 0 {
				// One-byte slices: every transfer is cut MaxSlices ways, and
				// a count below that leaves some slices empty.
				cfg.MinSliceBytes = 1
			}
			comm, err := NewComm(r.s, r.cluster, r.engines, r.devices, info, cfg, nil)
			if err != nil {
				t.Fatal(err)
			}

			alloc := func(rank int, count int64) *gpusim.Buffer {
				b, err := r.devices[gpus[rank]].AllocBacked(count * 4)
				if err != nil {
					t.Fatal(err)
				}
				return b
			}
			type transfer struct {
				from, to int
				src, dst *gpusim.Buffer
			}
			type allReduce struct {
				bufs []*gpusim.Buffer
				want []float32
			}
			var (
				transfers  []transfer
				allReduces []allReduce
				issued     = make([][]*OpRequest, n) // per rank, in issue order
				script     []func()
			)
			issue := func(rank int, req *OpRequest) {
				issued[rank] = append(issued[rank], req)
				script = append(script, func() { comm.Runners[rank].Enqueue(req) })
			}
			const arCount = 96
			nOps, large := 10+rng.Intn(6), rng.Intn(8)
			for i := 0; i < nOps; i++ {
				if rng.Intn(3) == 0 {
					ar := allReduce{want: make([]float32, arCount)}
					for rank := 0; rank < n; rank++ {
						b := alloc(rank, arCount)
						for j := range b.Data() {
							v := float32(rng.Intn(16))
							b.Data()[j] = v
							ar.want[j] += v
						}
						ar.bufs = append(ar.bufs, b)
						issue(rank, &OpRequest{Op: collective.AllReduce, Count: arCount, SendBuf: b, RecvBuf: b})
					}
					allReduces = append(allReduces, ar)
					continue
				}
				count := small[rng.Intn(len(small))]
				if i == large {
					count = 1<<20 + rng.Int63n(3<<20+1)
				}
				from := rng.Intn(n)
				to := from ^ 1 // the other GPU of the same host
				if rng.Intn(3) != 0 {
					to = (from + 1 + rng.Intn(n-1)) % n
				}
				tr := transfer{from: from, to: to, src: alloc(from, count), dst: alloc(to, count)}
				for j := range tr.src.Data() {
					tr.src.Data()[j] = float32((j*31 + i*7) % 8191)
				}
				transfers = append(transfers, tr)
				issue(from, &OpRequest{P2P: P2PSend, Peer: to, Count: count, RecvBuf: tr.src})
				issue(to, &OpRequest{P2P: P2PRecv, Peer: from, Count: count, RecvBuf: tr.dst})
			}

			// One event issues everything: the picker may not reorder the script.
			r.s.At(0, func() {
				for _, enqueue := range script {
					enqueue()
				}
			})
			if err := r.s.Run(); err != nil {
				t.Fatal(err)
			}
			for i, tr := range transfers {
				src, dst := tr.src.Data(), tr.dst.Data()
				for j := range src {
					if dst[j] != src[j] {
						t.Fatalf("transfer %d (%d->%d, %d elems): elem %d = %g, want %g", i, tr.from, tr.to, len(src), j, dst[j], src[j])
					}
				}
			}
			for i, ar := range allReduces {
				for rank, b := range ar.bufs {
					for j, v := range b.Data() {
						if v != ar.want[j] {
							t.Fatalf("allreduce %d rank %d elem %d = %g, want %g", i, rank, j, v, ar.want[j])
						}
					}
				}
			}
			// Each operation's completion span, matched against the
			// request issued at its position: the runner completes a
			// rank's operations one at a time, in issue order.
			for rank, reqs := range issued {
				var prevEnd sim.Time
				var seq uint64
				if rank >= len(completed) || len(completed[rank]) != len(reqs) {
					t.Fatalf("rank %d did not complete exactly its %d operations", rank, len(reqs))
				}
				for i, res := range completed[rank] {
					if req := reqs[i]; (req.P2P != 0) != (res.Kind == trace.KindP2P) || req.P2P != 0 && int(res.Peer) != req.Peer {
						t.Fatalf("rank %d completed %v (peer %d) where it issued op %d with peer %d", rank, res.Kind, res.Peer, i, req.Peer)
					}
					if res.Start < prevEnd {
						t.Errorf("rank %d op %d started at %v, before op %d ended at %v", rank, i, res.Start, i-1, prevEnd)
					}
					prevEnd = res.End
					// Collectives are numbered in issue order; transfers are not numbered.
					if res.Seq != 0 {
						if seq++; res.Seq != seq {
							t.Errorf("rank %d op %d has seq %d, want %d", rank, i, res.Seq, seq)
						}
					}
				}
				if int(seq) != len(allReduces) {
					t.Errorf("rank %d ran %d collectives, want %d", rank, seq, len(allReduces))
				}
				if !comm.Runners[rank].Quiescent() {
					t.Errorf("rank %d not quiescent", rank)
				}
			}
			for e, conn := range comm.p2p {
				if conn.Pending() != 0 {
					t.Errorf("p2p conn %d->%d has %d undelivered messages", e.From, e.To, conn.Pending())
				}
			}
			for e, conn := range comm.gens[0].conns {
				if conn.Pending() != 0 {
					t.Errorf("conn %+v has %d undelivered messages", e, conn.Pending())
				}
			}
			if got, want := spans[trace.KindP2P], 2*len(transfers); got != want {
				t.Errorf("%d KindP2P spans, want %d (one per send and per receive)", got, want)
			}
			if got, want := spans[trace.KindOp], n*len(allReduces); got != want {
				t.Errorf("%d KindOp spans, want %d", got, want)
			}
		})
	}
}
