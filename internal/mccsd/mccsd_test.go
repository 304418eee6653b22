package mccsd

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"mccs/internal/collective"
	"mccs/internal/gpusim"
	"mccs/internal/netsim"
	"mccs/internal/proxy"
	"mccs/internal/sim"
	"mccs/internal/spec"
	"mccs/internal/topo"
	"mccs/internal/trace"
	"mccs/internal/transport"
)

func newDeployment(cfg Config) (*sim.Scheduler, *Deployment) {
	cluster, err := topo.BuildClos(topo.TestbedConfig())
	if err != nil {
		panic(err)
	}
	s := sim.New()
	fb := netsim.NewFabric(s, cluster.Net)
	return s, NewDeployment(s, cluster, fb, cfg)
}

// launchRanks starts one tenant process per rank running body. Each body
// gets its rank, the frontend on its GPU's host, and the GPU.
func launchRanks(s *sim.Scheduler, d *Deployment, app spec.AppID, gpus []topo.GPUID,
	body func(p *sim.Proc, rank int, f *Frontend, gpu topo.GPUID)) {
	for rank, gpu := range gpus {
		rank, gpu := rank, gpu
		host := d.Cluster.HostOfGPU(gpu)
		s.Go("tenant", func(p *sim.Proc) {
			body(p, rank, d.Service(host).Frontend(app), gpu)
		})
	}
}

func oneGPUPerHost(d *Deployment) []topo.GPUID {
	var gpus []topo.GPUID
	for _, h := range d.Cluster.Hosts {
		gpus = append(gpus, h.GPUs[0])
	}
	return gpus
}

func TestEndToEndAllReduce(t *testing.T) {
	s, d := newDeployment(DefaultConfig())
	gpus := oneGPUPerHost(d)
	const count = 500
	want := make([]float32, count)
	results := make([][]float32, len(gpus))
	launchRanks(s, d, "appA", gpus, func(p *sim.Proc, rank int, f *Frontend, gpu topo.GPUID) {
		buf, err := f.MemAlloc(p, gpu, count*4, true)
		if err != nil {
			t.Error(err)
			return
		}
		for j := range buf.Data() {
			buf.Data()[j] = float32(rank + 1)
		}
		comm, err := f.CommInitRank(p, "job0", len(gpus), rank, gpu)
		if err != nil {
			t.Error(err)
			return
		}
		st := d.Device(gpu).NewStream("app")
		h, err := comm.AllReduce(p, nil, buf, count, st)
		if err != nil {
			t.Error(err)
			return
		}
		stats := h.Wait(p)
		if stats.Bytes != count*4 {
			t.Errorf("rank %d stats bytes = %d", rank, stats.Bytes)
		}
		if stats.Elapsed() <= 0 {
			t.Errorf("rank %d non-positive elapsed", rank)
		}
		results[rank] = append([]float32(nil), buf.Data()...)
		if err := f.MemFree(p, buf); err != nil {
			t.Error(err)
		}
	})
	for j := range want {
		want[j] = 1 + 2 + 3 + 4
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for rank, res := range results {
		if res == nil {
			t.Fatalf("rank %d produced no result", rank)
		}
		for j := range want {
			if res[j] != want[j] {
				t.Fatalf("rank %d elem %d = %g, want %g", rank, j, res[j], want[j])
			}
		}
	}
}

// TestMemFreeRefusesBufferInFlight: freeing either buffer of an issued
// AllReduce fails until the op completes, and leaves the buffer usable;
// after Wait both frees succeed.
func TestMemFreeRefusesBufferInFlight(t *testing.T) {
	s, d := newDeployment(DefaultConfig())
	gpus := oneGPUPerHost(d)
	const count = 500
	launchRanks(s, d, "appA", gpus, func(p *sim.Proc, rank int, f *Frontend, gpu topo.GPUID) {
		send, err1 := f.MemAlloc(p, gpu, count*4, true)
		recv, err2 := f.MemAlloc(p, gpu, count*4, true)
		comm, err3 := f.CommInitRank(p, "job0", len(gpus), rank, gpu)
		if err1 != nil || err2 != nil || err3 != nil {
			t.Error(err1, err2, err3)
			return
		}
		for j := range send.Data() {
			send.Data()[j] = float32(rank + 1)
		}
		h, err := comm.AllReduce(p, send, recv, count, nil)
		if err != nil {
			t.Error(err)
			return
		}
		for _, buf := range []*gpusim.Buffer{send, recv} {
			if err := f.MemFree(p, buf); err == nil {
				t.Errorf("rank %d: MemFree of a buffer the AllReduce still uses succeeded", rank)
			}
		}
		h.Wait(p)
		if got := recv.Data()[count-1]; got != 1+2+3+4 {
			t.Errorf("rank %d: result %g, want 10", rank, got)
		}
		for _, buf := range []*gpusim.Buffer{send, recv} {
			if err := f.MemFree(p, buf); err != nil {
				t.Errorf("rank %d: MemFree after Wait: %v", rank, err)
			}
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestStreamOrderingAcrossCollective(t *testing.T) {
	// A kernel enqueued on the app stream after a collective must not run
	// until the collective completes (the §4.1 event dance).
	s, d := newDeployment(DefaultConfig())
	gpus := oneGPUPerHost(d)
	const count = 1 << 18
	var kernelAt, collDone sim.Time
	launchRanks(s, d, "appA", gpus, func(p *sim.Proc, rank int, f *Frontend, gpu topo.GPUID) {
		buf, _ := f.MemAlloc(p, gpu, count*4, false)
		comm, err := f.CommInitRank(p, "job0", len(gpus), rank, gpu)
		if err != nil {
			t.Error(err)
			return
		}
		st := d.Device(gpu).NewStream("app")
		h, err := comm.AllReduce(p, nil, buf, count, st)
		if err != nil {
			t.Error(err)
			return
		}
		if rank == 0 {
			st.Launch("after-collective", time.Microsecond, func() {
				kernelAt = p.Now()
			})
		}
		stats := h.Wait(p)
		if rank == 0 {
			collDone = stats.Done
			st.Synchronize(p)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if kernelAt < collDone {
		t.Errorf("post-collective kernel ran at %v, before collective completion %v", kernelAt, collDone)
	}
}

func TestComputeBeforeCollectiveIsWaitedOn(t *testing.T) {
	// The collective must not start before the tenant's compute kernel
	// that produces its input finishes.
	s, d := newDeployment(DefaultConfig())
	gpus := oneGPUPerHost(d)
	const count = 1024
	const computeTime = 5 * time.Millisecond
	var done sim.Time
	launchRanks(s, d, "appA", gpus, func(p *sim.Proc, rank int, f *Frontend, gpu topo.GPUID) {
		buf, _ := f.MemAlloc(p, gpu, count*4, false)
		comm, err := f.CommInitRank(p, "job0", len(gpus), rank, gpu)
		if err != nil {
			t.Error(err)
			return
		}
		st := d.Device(gpu).NewStream("app")
		st.Launch("produce-gradients", computeTime, nil)
		h, err := comm.AllReduce(p, nil, buf, count, st)
		if err != nil {
			t.Error(err)
			return
		}
		stats := h.Wait(p)
		if rank == 0 {
			done = stats.Done
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if done < sim.Time(computeTime) {
		t.Errorf("collective done at %v, before the %v compute finished", done, computeTime)
	}
}

func TestBaselineCannotReconfigure(t *testing.T) {
	s, d := newDeployment(BaselineConfig())
	gpus := oneGPUPerHost(d)
	launchRanks(s, d, "appA", gpus, func(p *sim.Proc, rank int, f *Frontend, gpu topo.GPUID) {
		if _, err := f.CommInitRank(p, "job0", len(gpus), rank, gpu); err != nil {
			t.Error(err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	view := d.View()
	if len(view) != 1 {
		t.Fatalf("view has %d comms, want 1", len(view))
	}
	if _, err := d.Reconfigure(view[0].ID, view[0].Strategy, nil); err == nil {
		t.Error("baseline accepted a reconfiguration")
	}
	if err := d.UpdateRoutes(view[0].ID, nil); err == nil {
		t.Error("baseline accepted a route update")
	}
}

func TestViewAndPriorities(t *testing.T) {
	s, d := newDeployment(DefaultConfig())
	d.SetPriority("appA", 3)
	gpus := oneGPUPerHost(d)
	launchRanks(s, d, "appA", gpus, func(p *sim.Proc, rank int, f *Frontend, gpu topo.GPUID) {
		if _, err := f.CommInitRank(p, "job0", len(gpus), rank, gpu); err != nil {
			t.Error(err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	view := d.View()
	if len(view) != 1 {
		t.Fatalf("view has %d comms", len(view))
	}
	info := view[0]
	if info.App != "appA" || info.Priority != 3 || info.NumRanks() != 4 {
		t.Errorf("view = %+v", info)
	}
	if len(info.Strategy.Channels) == 0 {
		t.Error("view strategy empty")
	}
	if got := len(info.Hosts()); got != 4 {
		t.Errorf("hosts = %d, want 4", got)
	}
}

func TestReconfigureThroughManagementAPI(t *testing.T) {
	s, d := newDeployment(DefaultConfig())
	gpus := oneGPUPerHost(d)
	const count = 2048
	launchRanks(s, d, "appA", gpus, func(p *sim.Proc, rank int, f *Frontend, gpu topo.GPUID) {
		buf, _ := f.MemAlloc(p, gpu, count*4, true)
		for j := range buf.Data() {
			buf.Data()[j] = 1
		}
		comm, err := f.CommInitRank(p, "job0", len(gpus), rank, gpu)
		if err != nil {
			t.Error(err)
			return
		}
		st := d.Device(gpu).NewStream("app")
		h, _ := comm.AllReduce(p, nil, buf, count, st)
		h.Wait(p)
		if rank == 0 {
			rev := spec.Strategy{Channels: []spec.ChannelSpec{{Order: []int{3, 2, 1, 0}, Route: 1}}}
			if latch, err := d.Reconfigure(comm.ID(), rev, nil); err != nil {
				t.Error(err)
			} else {
				latch.Wait(p)
			}
		} else {
			p.Sleep(50 * time.Millisecond) // wait out the reconfig
		}
		h2, _ := comm.AllReduce(p, nil, buf, count, st)
		h2.Wait(p)
		for j := range buf.Data() {
			if buf.Data()[j] != 16 { // 1 summed twice across 4 ranks
				t.Errorf("rank %d elem %d = %g, want 16", rank, j, buf.Data()[j])
				return
			}
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMCCSDatapathOverheadVsBaseline(t *testing.T) {
	// Small collectives: the service datapath (~65us round trip) makes
	// MCCS slower than the library baseline; large collectives converge.
	run := func(cfg Config, count int64) time.Duration {
		s, d := newDeployment(cfg)
		gpus := oneGPUPerHost(d)
		var elapsed time.Duration
		launchRanks(s, d, "appA", gpus, func(p *sim.Proc, rank int, f *Frontend, gpu topo.GPUID) {
			buf, _ := f.MemAlloc(p, gpu, count*4, false)
			comm, err := f.CommInitRank(p, "job0", len(gpus), rank, gpu)
			if err != nil {
				t.Error(err)
				return
			}
			h, _ := comm.AllReduce(p, nil, buf, count, nil)
			stats := h.Wait(p)
			if rank == 0 {
				elapsed = time.Duration(stats.Elapsed())
			}
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return elapsed
	}
	smallMCCS := run(DefaultConfig(), 8<<10) // 32 KB
	smallNCCL := run(BaselineConfig(), 8<<10)
	if smallMCCS <= smallNCCL {
		t.Errorf("32KB: MCCS %v should be slower than baseline %v", smallMCCS, smallNCCL)
	}
	largeMCCS := run(DefaultConfig(), 32<<20) // 128 MB
	largeNCCL := run(BaselineConfig(), 32<<20)
	ratio := float64(largeMCCS) / float64(largeNCCL)
	if ratio > 1.02 {
		t.Errorf("128MB: MCCS/baseline ratio = %.3f, want <= 1.02 (overhead amortized)", ratio)
	}
}

func TestFrontendValidation(t *testing.T) {
	s, d := newDeployment(DefaultConfig())
	s.Go("tenant", func(p *sim.Proc) {
		f := d.Service(0).Frontend("appA")
		// GPU on the wrong host.
		wrongGPU := d.Cluster.Hosts[1].GPUs[0]
		if _, err := f.MemAlloc(p, wrongGPU, 1024, false); err == nil {
			t.Error("alloc on remote GPU accepted")
		}
		if _, err := f.CommInitRank(p, "x", 2, 0, wrongGPU); err == nil {
			t.Error("comm init on remote GPU accepted")
		}
		gpu := d.Cluster.Hosts[0].GPUs[0]
		if _, err := f.CommInitRank(p, "x", 0, 0, gpu); err == nil {
			t.Error("zero-rank communicator accepted")
		}
		if _, err := f.CommInitRank(p, "x", 2, 5, gpu); err == nil {
			t.Error("out-of-range rank accepted")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}

	// A count larger than the buffers is the tenant's mistake and must come
	// back to the tenant as an error on every rank: accepted, it panics the
	// rank's execution engine on backed buffers (slice bounds out of range
	// inside the scheduler) and on unbacked ones simulates bytes nobody
	// allocated.
	for _, backed := range []bool{true, false} {
		s, d := newDeployment(DefaultConfig())
		gpus := oneGPUPerHost(d)
		n := int64(len(gpus))
		launchRanks(s, d, "appA", gpus, func(p *sim.Proc, rank int, f *Frontend, gpu topo.GPUID) {
			buf, _ := f.MemAlloc(p, gpu, 1024*4, backed)
			part, _ := f.MemAlloc(p, gpu, 1024/n*4, backed) // one rank's share of buf
			small, _ := f.MemAlloc(p, gpu, 16*4, backed)
			comm, err := f.CommInitRank(p, "job0", len(gpus), rank, gpu)
			if err != nil {
				t.Error(err)
				return
			}
			bad := func(what string, _ *OpHandle, err error) {
				if err == nil {
					t.Errorf("backed=%v rank %d: %s accepted", backed, rank, what)
				}
			}
			h, err := comm.AllReduce(p, nil, buf, 4096, nil)
			bad("AllReduce beyond the buffer", h, err)
			h, err = comm.AllReduce(p, nil, buf, 1<<62, nil)
			bad("AllReduce with a count that overflows in bytes", h, err)
			h, err = comm.AllReduce(p, small, buf, 1024, nil)
			bad("AllReduce beyond the send buffer", h, err)
			h, err = comm.AllGather(p, buf, buf, 1024/n+1, nil)
			bad("AllGather beyond the receive buffer", h, err)
			h, err = comm.AllGather(p, small, buf, 17, nil)
			bad("AllGather beyond the send buffer", h, err)
			h, err = comm.ReduceScatter(p, nil, buf, 1025, nil)
			bad("ReduceScatter beyond the buffer", h, err)
			h, err = comm.Broadcast(p, small, 17, 0, nil)
			bad("Broadcast beyond the buffer", h, err)
			h, err = comm.Reduce(p, small, 17, 0, nil)
			bad("Reduce beyond the buffer", h, err)
			// What fits exactly still runs, after all the refusals.
			if h, err = comm.AllGather(p, part, buf, 1024/n, nil); err != nil {
				t.Errorf("backed=%v rank %d: exact-fit AllGather: %v", backed, rank, err)
				return
			}
			h.Wait(p)
			if h, err = comm.AllReduce(p, nil, buf, 1024, nil); err != nil {
				t.Errorf("backed=%v rank %d: exact-fit AllReduce: %v", backed, rank, err)
				return
			}
			h.Wait(p)
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRendezvousDoubleRegistration(t *testing.T) {
	s, d := newDeployment(DefaultConfig())
	var errs int
	s.Go("tenant", func(p *sim.Proc) {
		f := d.Service(0).Frontend("appA")
		gpu0 := d.Cluster.Hosts[0].GPUs[0]
		gpu1 := d.Cluster.Hosts[0].GPUs[1]
		go0 := make(chan struct{})
		_ = go0
		// First registration in a sub-process so we can register rank 0
		// twice without blocking.
		s.Go("first", func(p2 *sim.Proc) {
			if _, err := f.CommInitRank(p2, "dup", 2, 0, gpu0); err != nil {
				t.Error(err)
			}
		})
		p.Sleep(time.Millisecond)
		if _, err := f.CommInitRank(p, "dup", 2, 0, gpu1); err != nil {
			errs++
		}
		// Complete the rendezvous properly.
		if _, err := f.CommInitRank(p, "dup", 2, 1, gpu1); err != nil {
			t.Error(err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if errs != 1 {
		t.Errorf("duplicate registration errors = %d, want 1", errs)
	}
}

func TestTrafficScheduleManagement(t *testing.T) {
	s, d := newDeployment(DefaultConfig())
	sched := transport.Schedule{
		Period: 10 * time.Millisecond,
		Slots:  []transport.Slot{{Offset: 0, Length: 5 * time.Millisecond}},
	}
	if err := d.SetTrafficSchedule("appB", sched); err != nil {
		t.Fatal(err)
	}
	// Gate applied on every host.
	for h := range d.Cluster.Hosts {
		g := d.Engine(topo.HostID(h)).Gate("appB")
		if g.NextAllowed(sim.Time(6*time.Millisecond)) == sim.Time(6*time.Millisecond) {
			t.Errorf("host %d gate not applied", h)
		}
	}
	d.ClearTrafficSchedule("appB")
	for h := range d.Cluster.Hosts {
		g := d.Engine(topo.HostID(h)).Gate("appB")
		if g.NextAllowed(sim.Time(6*time.Millisecond)) != sim.Time(6*time.Millisecond) {
			t.Errorf("host %d gate not cleared", h)
		}
	}
	bad := transport.Schedule{Period: 0, Slots: []transport.Slot{{Offset: 0, Length: time.Millisecond}}}
	if err := d.SetTrafficSchedule("appB", bad); err == nil {
		t.Error("invalid schedule accepted")
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestCommTraceAPI: the service keeps each rank's collective history with no
// observer attached (NewDeployment attaches none), and after more
// collectives than it holds it answers with the newest proxy.HistoryLen of
// them, oldest first. Each op has its own size, so a record that came from
// the wrong op shows in its Bytes.
func TestCommTraceAPI(t *testing.T) {
	s, d := newDeployment(DefaultConfig())
	if trace.Of(s) != nil {
		t.Fatal("NewDeployment attached a flight recorder")
	}
	gpus := oneGPUPerHost(d)
	const ops = proxy.HistoryLen + 6
	count := func(i int) int64 { return int64(64 + 4*i) }
	launchRanks(s, d, "appA", gpus, func(p *sim.Proc, rank int, f *Frontend, gpu topo.GPUID) {
		buf, _ := f.MemAlloc(p, gpu, count(ops)*4, false)
		comm, err := f.CommInitRank(p, "job0", len(gpus), rank, gpu)
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < ops; i++ {
			h, err := comm.AllReduce(p, nil, buf, count(i), nil)
			if err != nil {
				t.Error(err)
				return
			}
			h.Wait(p)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	view := d.View()
	for rank := range gpus {
		hist, err := d.CommTrace(view[0].ID, rank)
		if err != nil {
			t.Fatal(err)
		}
		if len(hist) != proxy.HistoryLen {
			t.Fatalf("rank %d: history has %d entries, want %d", rank, len(hist), proxy.HistoryLen)
		}
		for j, op := range hist {
			i := ops - proxy.HistoryLen + j // the op this record must be, 0-based
			if op.Seq != uint64(i+1) || op.Bytes != count(i)*4 || op.Op != collective.AllReduce {
				t.Fatalf("rank %d record %d = %+v, want seq %d, %d bytes", rank, j, op, i+1, count(i)*4)
			}
		}
	}
	if _, err := d.CommTrace(99, 0); err == nil {
		t.Error("trace of unknown comm accepted")
	}
	if _, err := d.CommTrace(view[0].ID, 99); err == nil {
		t.Error("trace of unknown rank accepted")
	}
}

// Property: end-to-end through the service, AllReduce and AllGather stay
// correct for random sizes and both service configs.
func TestQuickServiceCorrectness(t *testing.T) {
	f := func(seed int64, countRaw uint16, baseline bool, gather bool) bool {
		count := int64(countRaw%1000) + 4
		cfg := DefaultConfig()
		if baseline {
			cfg = BaselineConfig()
		}
		s, d := newDeployment(cfg)
		gpus := oneGPUPerHost(d)
		n := len(gpus)
		rng := rand.New(rand.NewSource(seed))
		inputs := make([][]float32, n)
		for i := range inputs {
			inputs[i] = make([]float32, count)
			for j := range inputs[i] {
				inputs[i][j] = float32(rng.Intn(16))
			}
		}
		outs := make([][]float32, n)
		ok := true
		launchRanks(s, d, "q", gpus, func(p *sim.Proc, rank int, fr *Frontend, gpu topo.GPUID) {
			comm, err := fr.CommInitRank(p, "j", n, rank, gpu)
			if err != nil {
				ok = false
				return
			}
			if gather {
				in, _ := fr.MemAlloc(p, gpu, count*4, true)
				out, _ := fr.MemAlloc(p, gpu, count*4*int64(n), true)
				copy(in.Data(), inputs[rank])
				h, err := comm.AllGather(p, in, out, count, nil)
				if err != nil {
					ok = false
					return
				}
				h.Wait(p)
				outs[rank] = append([]float32(nil), out.Data()...)
			} else {
				buf, _ := fr.MemAlloc(p, gpu, count*4, true)
				copy(buf.Data(), inputs[rank])
				h, err := comm.AllReduce(p, nil, buf, count, nil)
				if err != nil {
					ok = false
					return
				}
				h.Wait(p)
				outs[rank] = append([]float32(nil), buf.Data()...)
			}
		})
		if err := s.Run(); err != nil {
			return false
		}
		if !ok {
			return false
		}
		if gather {
			for r := 0; r < n; r++ {
				for k := 0; k < n; k++ {
					for j := int64(0); j < count; j++ {
						if outs[r][int64(k)*count+j] != inputs[k][j] {
							return false
						}
					}
				}
			}
		} else {
			want := make([]float32, count)
			for _, in := range inputs {
				for j, v := range in {
					want[j] += v
				}
			}
			for r := 0; r < n; r++ {
				for j := range want {
					if outs[r][j] != want[j] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

var _ = gpusim.NewEvent // keep import if helpers change
var _ = collective.AllReduce
