package proxy

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"mccs/internal/collective"
	"mccs/internal/gpusim"
	"mccs/internal/netsim"
	"mccs/internal/sim"
	"mccs/internal/spec"
	"mccs/internal/topo"
	"mccs/internal/trace"
	"mccs/internal/transport"
)

// rig is a full substrate: testbed cluster, fabric, one device per GPU,
// one transport engine per host.
type rig struct {
	s       *sim.Scheduler
	cluster *topo.Cluster
	fabric  *netsim.Fabric
	engines map[topo.HostID]*transport.Engine
	devices map[topo.GPUID]*gpusim.Device
}

func newRig(t *testing.T) *rig {
	t.Helper()
	cluster, err := topo.BuildClos(topo.TestbedConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New()
	r := &rig{
		s:       s,
		cluster: cluster,
		fabric:  netsim.NewFabric(s, cluster.Net),
		engines: make(map[topo.HostID]*transport.Engine),
		devices: make(map[topo.GPUID]*gpusim.Device),
	}
	for h := range cluster.Hosts {
		hid := topo.HostID(h)
		r.engines[hid] = transport.NewEngine(s, cluster, r.fabric, hid, transport.DefaultConfig(cluster.IntraHostBps))
	}
	for g := range cluster.GPUs {
		gid := topo.GPUID(g)
		r.devices[gid] = gpusim.NewDevice(s, g, gpusim.DefaultConfig())
	}
	return r
}

// commOn builds a communicator over the given GPUs with the given per-
// channel ring orders.
func (r *rig) commOn(t *testing.T, gpus []topo.GPUID, orders [][]int) *Comm {
	t.Helper()
	info := spec.CommInfo{ID: 1, App: "test"}
	for i, g := range gpus {
		info.Ranks = append(info.Ranks, spec.RankInfo{
			Rank: i, GPU: g,
			Host: r.cluster.HostOfGPU(g),
			NIC:  r.cluster.NICOfGPU(g),
		})
	}
	for ci, o := range orders {
		info.Strategy.Channels = append(info.Strategy.Channels, spec.ChannelSpec{Order: o, Route: ci})
	}
	comm, err := NewComm(r.s, r.cluster, r.engines, r.devices, info, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return comm
}

// fourHostGPUs returns one GPU per host (the paper's 4-GPU setup).
func (r *rig) fourHostGPUs() []topo.GPUID {
	var gpus []topo.GPUID
	for _, h := range r.cluster.Hosts {
		gpus = append(gpus, h.GPUs[0])
	}
	return gpus
}

// backedBuffers allocates one backed buffer per rank filled with
// deterministic values and returns them with the expected elementwise sum.
func backedBuffers(t *testing.T, r *rig, gpus []topo.GPUID, count int64, seed int64) ([]*gpusim.Buffer, []float32) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	bufs := make([]*gpusim.Buffer, len(gpus))
	want := make([]float32, count)
	for i, g := range gpus {
		b, err := r.devices[g].AllocBacked(count * 4)
		if err != nil {
			t.Fatal(err)
		}
		for j := range b.Data() {
			v := float32(rng.Intn(32))
			b.Data()[j] = v
			want[j] += v
		}
		bufs[i] = b
	}
	return bufs, want
}

// opDone is the tests' Completer: Wait parks the caller until the runner
// reports the operation complete.
type opDone struct {
	s    *sim.Scheduler
	done sim.Future[struct{}]
}

func newOpDone(s *sim.Scheduler) *opDone { return &opDone{s: s} }

func (d *opDone) OpCompleted()     { d.done.Set(d.s, struct{}{}) }
func (d *opDone) Wait(p *sim.Proc) { d.done.Wait(p) }

// runAllReduce enqueues one AllReduce on every rank, waits for all, and
// returns each rank's record of it from the runner's history.
func runAllReduce(p *sim.Proc, comm *Comm, bufs []*gpusim.Buffer, count int64) []OpResult {
	futs := make([]*opDone, len(comm.Runners))
	for i, r := range comm.Runners {
		futs[i] = newOpDone(comm.s)
		r.Enqueue(&OpRequest{
			Op: collective.AllReduce, Count: count,
			SendBuf: bufs[i], RecvBuf: bufs[i], OnComplete: futs[i],
		})
	}
	out := make([]OpResult, len(futs))
	for i, f := range futs {
		f.Wait(p)
		h := comm.Runners[i].History()
		out[i] = h[len(h)-1]
	}
	return out
}

func TestAllReduceCorrectnessThroughStack(t *testing.T) {
	r := newRig(t)
	gpus := r.fourHostGPUs()
	comm := r.commOn(t, gpus, [][]int{{0, 1, 2, 3}})
	const count = 1000
	bufs, want := backedBuffers(t, r, gpus, count, 1)
	r.s.Go("driver", func(p *sim.Proc) {
		results := runAllReduce(p, comm, bufs, count)
		for i, res := range results {
			if res.Seq != 1 || res.Op != collective.AllReduce {
				t.Errorf("rank %d result = %+v", i, res)
			}
			if res.End.Sub(res.Start) <= 0 {
				t.Errorf("rank %d non-positive duration", i)
			}
		}
		for i, b := range bufs {
			for j := 0; j < count; j++ {
				if b.Data()[j] != want[j] {
					t.Fatalf("rank %d elem %d = %g, want %g", i, j, b.Data()[j], want[j])
				}
			}
		}
	})
	if err := r.s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestAllGatherThroughStack(t *testing.T) {
	r := newRig(t)
	gpus := r.fourHostGPUs()
	comm := r.commOn(t, gpus, [][]int{{2, 0, 3, 1}}) // non-trivial ring
	const per = 64
	n := len(gpus)
	ins := make([]*gpusim.Buffer, n)
	outs := make([]*gpusim.Buffer, n)
	for i, g := range gpus {
		in, _ := r.devices[g].AllocBacked(per * 4)
		for j := range in.Data() {
			in.Data()[j] = float32(i*1000 + j)
		}
		out, _ := r.devices[g].AllocBacked(per * 4 * int64(n))
		ins[i], outs[i] = in, out
	}
	r.s.Go("driver", func(p *sim.Proc) {
		futs := make([]*opDone, n)
		for i, rn := range comm.Runners {
			futs[i] = newOpDone(r.s)
			rn.Enqueue(&OpRequest{
				Op: collective.AllGather, Count: per,
				SendBuf: ins[i], RecvBuf: outs[i], OnComplete: futs[i],
			})
		}
		for _, f := range futs {
			f.Wait(p)
		}
		for i := 0; i < n; i++ {
			for k := 0; k < n; k++ {
				for j := 0; j < per; j++ {
					got := outs[i].Data()[k*per+j]
					want := float32(k*1000 + j)
					if got != want {
						t.Fatalf("rank %d span %d elem %d = %g, want %g", i, k, j, got, want)
					}
				}
			}
		}
	})
	if err := r.s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMultiChannelSplitsTraffic(t *testing.T) {
	r := newRig(t)
	// 8-GPU setup: both GPUs of all 4 hosts; 2 channels on the 2 NICs.
	var gpus []topo.GPUID
	for _, h := range r.cluster.Hosts {
		gpus = append(gpus, h.GPUs...)
	}
	order := []int{0, 1, 2, 3, 4, 5, 6, 7}
	comm := r.commOn(t, gpus, [][]int{order, order})
	const count = 4096
	bufs, want := backedBuffers(t, r, gpus, count, 2)
	r.s.Go("driver", func(p *sim.Proc) {
		runAllReduce(p, comm, bufs, count)
		for i, b := range bufs {
			for j := 0; j < count; j++ {
				if b.Data()[j] != want[j] {
					t.Fatalf("rank %d elem %d = %g, want %g", i, j, b.Data()[j], want[j])
				}
			}
		}
	})
	if err := r.s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBadRingSlowerThanOptimal(t *testing.T) {
	// The paper's core single-app observation: a ring that zig-zags
	// across racks is much slower than the locality-aware one.
	run := func(order []int) time.Duration {
		r := newRig(t)
		gpus := r.fourHostGPUs()
		comm := r.commOn(t, gpus, [][]int{order})
		const count = 8 << 20 // 32 MB
		var bufs []*gpusim.Buffer
		for _, g := range gpus {
			b, _ := r.devices[g].Alloc(count * 4)
			bufs = append(bufs, b)
		}
		var dur time.Duration
		r.s.Go("driver", func(p *sim.Proc) {
			res := runAllReduce(p, comm, bufs, count)
			dur = res[0].End.Sub(res[0].Start)
		})
		if err := r.s.Run(); err != nil {
			t.Fatal(err)
		}
		return dur
	}
	// Hosts 0,1 are rack 0; hosts 2,3 rack 1. Optimal: 2 cross-rack
	// edges; bad ring: 4 cross-rack edges over the same 2 spine paths.
	optimal := run([]int{0, 1, 2, 3})
	bad := run([]int{0, 2, 1, 3})
	if float64(bad) < 1.5*float64(optimal) {
		t.Errorf("bad ring %v vs optimal %v: want >= 1.5x slower", bad, optimal)
	}
}

func TestReconfigureSwitchesStrategy(t *testing.T) {
	r := newRig(t)
	gpus := r.fourHostGPUs()
	comm := r.commOn(t, gpus, [][]int{{0, 1, 2, 3}})
	const count = 512
	bufs, _ := backedBuffers(t, r, gpus, count, 3)
	r.s.Go("driver", func(p *sim.Proc) {
		runAllReduce(p, comm, bufs, count)
		newStrat := spec.Strategy{Channels: []spec.ChannelSpec{{Order: []int{3, 2, 1, 0}, Route: 1}}}
		latch := sim.NewLatch(len(comm.Runners))
		for _, rn := range comm.Runners {
			rn.Enqueue(&ReconfigRequest{Strategy: newStrat, Done: latch})
		}
		latch.Wait(p)
		for i, rn := range comm.Runners {
			if rn.Generation() != 1 {
				t.Errorf("rank %d generation = %d, want 1", i, rn.Generation())
			}
		}
		got := comm.Strategy()
		if got.Channels[0].Order[0] != 3 {
			t.Errorf("strategy not switched: %+v", got)
		}
		// Collectives still work (and are still correct) afterwards.
		bufs2, want2 := backedBuffers(t, r, gpus, count, 4)
		runAllReduce(p, comm, bufs2, count)
		for i, b := range bufs2 {
			for j := 0; j < count; j++ {
				if b.Data()[j] != want2[j] {
					t.Fatalf("post-reconfig rank %d elem %d wrong", i, j)
				}
			}
		}
	})
	if err := r.s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestReconfigureFig4Race(t *testing.T) {
	// Reproduce Fig. 4: rank 0 launches AR1 before seeing the
	// reconfiguration request while ranks 1..3 see the request first.
	// The sequence-number AllGather must make everyone run AR1 on the
	// old rings, then switch together.
	r := newRig(t)
	gpus := r.fourHostGPUs()
	comm := r.commOn(t, gpus, [][]int{{0, 1, 2, 3}})
	const count = 256
	bufs, want := backedBuffers(t, r, gpus, count, 5)
	newStrat := spec.Strategy{Channels: []spec.ChannelSpec{{Order: []int{0, 3, 2, 1}, Route: 0}}}
	r.s.Go("driver", func(p *sim.Proc) {
		latch := sim.NewLatch(len(comm.Runners))
		// Ranks 1..3 get the reconfig before AR1; rank 0 after.
		for i := 1; i < 4; i++ {
			comm.Runners[i].Enqueue(&ReconfigRequest{Strategy: newStrat, Done: latch})
		}
		futs := make([]*opDone, 4)
		for i, rn := range comm.Runners {
			futs[i] = newOpDone(r.s)
			rn.Enqueue(&OpRequest{
				Op: collective.AllReduce, Count: count,
				SendBuf: bufs[i], RecvBuf: bufs[i], OnComplete: futs[i],
			})
		}
		comm.Runners[0].Enqueue(&ReconfigRequest{Strategy: newStrat, Done: latch})
		for _, f := range futs {
			f.Wait(p)
		}
		latch.Wait(p)
		for i, rn := range comm.Runners {
			if rn.Seq() != 1 {
				t.Errorf("rank %d seq = %d, want 1", i, rn.Seq())
			}
			if rn.Generation() != 1 {
				t.Errorf("rank %d generation = %d, want 1", i, rn.Generation())
			}
		}
		for i, b := range bufs {
			for j := 0; j < count; j++ {
				if b.Data()[j] != want[j] {
					t.Fatalf("rank %d elem %d = %g, want %g (data corrupted by race)",
						i, j, b.Data()[j], want[j])
				}
			}
		}
	})
	if err := r.s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestReconfigureReversedRingTiming(t *testing.T) {
	// Reconfiguration has bounded overhead: an AllReduce after a reverse
	// reconfig takes about as long as before it.
	r := newRig(t)
	gpus := r.fourHostGPUs()
	comm := r.commOn(t, gpus, [][]int{{0, 1, 2, 3}})
	const count = 1 << 20
	var bufs []*gpusim.Buffer
	for _, g := range gpus {
		b, _ := r.devices[g].Alloc(count * 4)
		bufs = append(bufs, b)
	}
	r.s.Go("driver", func(p *sim.Proc) {
		before := runAllReduce(p, comm, bufs, count)[0].Elapsed()
		latch := sim.NewLatch(len(comm.Runners))
		rev := spec.Strategy{Channels: []spec.ChannelSpec{{Order: []int{3, 2, 1, 0}, Route: 0}}}
		reconfStart := p.Now()
		for _, rn := range comm.Runners {
			rn.Enqueue(&ReconfigRequest{Strategy: rev, Done: latch})
		}
		latch.Wait(p)
		reconfDur := p.Now().Sub(reconfStart)
		after := runAllReduce(p, comm, bufs, count)[0].Elapsed()
		if after > before*3/2 {
			t.Errorf("post-reconfig AllReduce %v vs %v before", after, before)
		}
		if reconfDur > 10*time.Millisecond {
			t.Errorf("idle reconfiguration took %v, want well under 10ms", reconfDur)
		}
	})
	if err := r.s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateRoutesImmediate(t *testing.T) {
	r := newRig(t)
	gpus := r.fourHostGPUs()
	comm := r.commOn(t, gpus, [][]int{{0, 1, 2, 3}})
	routes := map[spec.ConnKey]int{
		{Channel: 0, FromRank: 1, ToRank: 2}: 1,
		{Channel: 0, FromRank: 3, ToRank: 0}: 0,
	}
	if err := comm.UpdateRoutes(routes); err != nil {
		t.Fatal(err)
	}
	got := comm.Strategy()
	if got.RouteFor(spec.ConnKey{Channel: 0, FromRank: 1, ToRank: 2}) != 1 {
		t.Error("route override not recorded")
	}
	if err := comm.UpdateRoutes(map[spec.ConnKey]int{{Channel: 5}: 0}); err == nil {
		t.Error("route for unknown channel accepted")
	}
	if err := comm.UpdateRoutes(map[spec.ConnKey]int{{Channel: 0, FromRank: 0, ToRank: 2}: 0}); err == nil {
		t.Error("route for nonexistent conn accepted")
	}
	if err := r.s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestTraceRecordsCollectives(t *testing.T) {
	r := newRig(t)
	rec := trace.NewRecorder(trace.LevelFull, 0)
	trace.Attach(r.s, rec)
	gpus := r.fourHostGPUs()
	comm := r.commOn(t, gpus, [][]int{{0, 1, 2, 3}})
	const count = 128
	var bufs []*gpusim.Buffer
	for _, g := range gpus {
		b, _ := r.devices[g].Alloc(count * 4)
		bufs = append(bufs, b)
	}
	r.s.Go("driver", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			runAllReduce(p, comm, bufs, count)
		}
		var tr []trace.Span
		for _, sp := range rec.Snapshot().Spans {
			if sp.Kind == trace.KindOp && sp.Comm == int32(comm.Info.ID) && sp.Rank == 0 {
				tr = append(tr, sp)
			}
		}
		if len(tr) != 3 {
			t.Fatalf("trace has %d entries, want 3", len(tr))
		}
		for i, sp := range tr {
			if sp.Seq != uint64(i+1) {
				t.Errorf("trace %d seq = %d", i, sp.Seq)
			}
			if sp.Bytes != count*4 {
				t.Errorf("trace %d bytes = %d", i, sp.Bytes)
			}
		}
	})
	if err := r.s.Run(); err != nil {
		t.Fatal(err)
	}
}

// Property: through the full proxy/transport/fabric stack, AllReduce sums
// correctly for random ring orders, channel counts and sizes.
func TestQuickStackAllReduce(t *testing.T) {
	f := func(seed int64, chRaw, countRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		nch := int(chRaw%2) + 1
		count := int64(countRaw%200) + 8
		r := newRigQuiet()
		gpus := []topo.GPUID{r.cluster.Hosts[0].GPUs[0], r.cluster.Hosts[1].GPUs[0],
			r.cluster.Hosts[2].GPUs[0], r.cluster.Hosts[3].GPUs[0]}
		orders := make([][]int, nch)
		for i := range orders {
			orders[i] = rng.Perm(4)
		}
		info := spec.CommInfo{ID: 9, App: "q"}
		for i, g := range gpus {
			info.Ranks = append(info.Ranks, spec.RankInfo{Rank: i, GPU: g,
				Host: r.cluster.HostOfGPU(g), NIC: r.cluster.NICOfGPU(g)})
		}
		for ci, o := range orders {
			info.Strategy.Channels = append(info.Strategy.Channels, spec.ChannelSpec{Order: o, Route: ci % 2})
		}
		comm, err := NewComm(r.s, r.cluster, r.engines, r.devices, info, DefaultConfig())
		if err != nil {
			return false
		}
		bufs := make([]*gpusim.Buffer, 4)
		want := make([]float32, count)
		for i, g := range gpus {
			b, err := r.devices[g].AllocBacked(count * 4)
			if err != nil {
				return false
			}
			for j := range b.Data() {
				v := float32(rng.Intn(16))
				b.Data()[j] = v
				want[j] += v
			}
			bufs[i] = b
		}
		ok := true
		r.s.Go("driver", func(p *sim.Proc) {
			runAllReduce(p, comm, bufs, count)
			for _, b := range bufs {
				for j := range want {
					if b.Data()[j] != want[j] {
						ok = false
					}
				}
			}
		})
		if err := r.s.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// newRigQuiet builds a rig without a *testing.T (for quick.Check bodies).
func newRigQuiet() *rig {
	cluster, err := topo.BuildClos(topo.TestbedConfig())
	if err != nil {
		panic(err)
	}
	s := sim.New()
	r := &rig{
		s:       s,
		cluster: cluster,
		fabric:  netsim.NewFabric(s, cluster.Net),
		engines: make(map[topo.HostID]*transport.Engine),
		devices: make(map[topo.GPUID]*gpusim.Device),
	}
	for h := range cluster.Hosts {
		hid := topo.HostID(h)
		r.engines[hid] = transport.NewEngine(s, cluster, r.fabric, hid, transport.DefaultConfig(cluster.IntraHostBps))
	}
	for g := range cluster.GPUs {
		gid := topo.GPUID(g)
		r.devices[gid] = gpusim.NewDevice(s, g, gpusim.DefaultConfig())
	}
	return r
}
