package workload

import (
	"math"
	"testing"
	"time"

	"mccs/internal/collective"
	"mccs/internal/mccsd"
	"mccs/internal/ncclsim"
	"mccs/internal/netsim"
	"mccs/internal/sim"
	"mccs/internal/spec"
	"mccs/internal/topo"
)

func TestTraceValidation(t *testing.T) {
	for _, tr := range []Trace{
		VGG19DataParallel(1),
		GPT27BTensorParallel(1),
	} {
		if err := tr.Validate(8); err != nil {
			t.Errorf("%s: %v", tr.Name, err)
		}
		var bytes int64
		var compute time.Duration
		for _, p := range tr.Phases {
			if p.Kind == Collective {
				bytes += p.Bytes
			} else {
				compute += p.Duration
			}
		}
		if bytes <= 0 {
			t.Errorf("%s: no communication", tr.Name)
		}
		if compute <= 0 {
			t.Errorf("%s: no compute", tr.Name)
		}
	}
	for _, tr := range ProductGroupProfiles() {
		if err := tr.Validate(2); err != nil {
			t.Errorf("%s: %v", tr.Name, err)
		}
	}
	bad := Trace{Name: "bad", Phases: []Phase{{Kind: Compute, Duration: 0}}}
	if err := bad.Validate(1); err == nil {
		t.Error("zero-duration phase accepted")
	}
	bad2 := Trace{Name: "bad2", Phases: []Phase{{Kind: Collective, Bytes: 0}}}
	if err := bad2.Validate(1); err == nil {
		t.Error("zero-byte collective accepted")
	}
	if err := (&Trace{Name: "empty"}).Validate(1); err == nil {
		t.Error("empty trace accepted")
	}
}

func TestVGGTraceShape(t *testing.T) {
	tr := VGG19DataParallel(1)
	var bytes int64
	overlapped := 0
	for _, p := range tr.Phases {
		if p.Kind == Collective {
			if !p.Overlap {
				t.Error("VGG buckets should overlap backward")
			}
			bytes += p.Bytes
			overlapped++
		}
	}
	// ~575 MB of gradients across overlapped buckets.
	if bytes < 500e6 || bytes > 650e6 {
		t.Errorf("VGG gradient bytes = %d", bytes)
	}
	if overlapped != 4 {
		t.Errorf("VGG buckets = %d, want 4", overlapped)
	}
}

func TestGPTTraceShape(t *testing.T) {
	tr := GPT27BTensorParallel(1)
	colls := 0
	for _, p := range tr.Phases {
		if p.Kind == Collective {
			colls++
			if p.Overlap {
				t.Error("TP all-reduces are on the critical path, not overlapped")
			}
			if p.Op != collective.AllReduce {
				t.Errorf("TP collective = %v", p.Op)
			}
		}
	}
	if colls != 64 {
		t.Errorf("GPT collectives per iteration = %d, want 64 (2 per layer)", colls)
	}
}

func newEnv() (*sim.Scheduler, *mccsd.Deployment) {
	cluster, err := topo.BuildClos(topo.TestbedConfig())
	if err != nil {
		panic(err)
	}
	s := sim.New()
	fb := netsim.NewFabric(s, cluster.Net)
	return s, mccsd.NewDeployment(s, cluster, fb, ncclsim.Config(ncclsim.MCCS))
}

// fourGPUs is one GPU on each of the testbed's four hosts.
func fourGPUs(d *mccsd.Deployment) []topo.GPUID {
	var gpus []topo.GPUID
	for _, h := range d.Cluster.Hosts[:4] {
		gpus = append(gpus, h.GPUs[0])
	}
	return gpus
}

// launch runs one job on the testbed's four first GPUs to completion.
func launch(t *testing.T, cfg RunConfig) *Result {
	t.Helper()
	s, d := newEnv()
	cfg.Dep, cfg.App, cfg.Key = d, "train", "j"
	cfg.GPUs = fourGPUs(d)
	fut := Launch(cfg)
	var res *Result
	s.Go("wait", func(p *sim.Proc) { res = fut.Wait(p) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	return res
}

func TestRunnerExecutesJob(t *testing.T) {
	// A ResNet-50 data-parallel iteration: 120 ms of compute, then one
	// 100 MB gradient AllReduce.
	resnet := Trace{Name: "resnet50-dp", Phases: []Phase{
		{Kind: Compute, Duration: 120 * time.Millisecond},
		{Kind: Collective, Op: collective.AllReduce, Bytes: 100 << 20},
	}}
	res := launch(t, RunConfig{Trace: resnet, Iterations: 5})
	if len(res.IterTimes) != 5 {
		t.Fatalf("iterations recorded = %d", len(res.IterTimes))
	}
	if res.JCT() <= 0 {
		t.Error("non-positive JCT")
	}
	// ResNet iteration: 120ms compute + 100MB AllReduce; comm must be a
	// visible fraction.
	bd := res.Breakdown
	sum := bd.Compute + bd.Memcpy + bd.Comm + bd.Idle
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("breakdown sums to %g", sum)
	}
	if bd.Comm <= 0 || bd.Compute <= 0 {
		t.Errorf("breakdown = %+v", bd)
	}
	if len(res.IterEnds) != 5 {
		t.Errorf("IterEnds = %d", len(res.IterEnds))
	}
	for i := 1; i < len(res.IterEnds); i++ {
		if res.IterEnds[i] <= res.IterEnds[i-1] {
			t.Error("IterEnds not increasing")
		}
	}
}

func TestOverlapHidesCommunication(t *testing.T) {
	// The same bytes take less wall time when buckets overlap compute.
	run := func(overlap bool) time.Duration {
		tr := Trace{Name: "x"}
		for b := 0; b < 4; b++ {
			tr.Phases = append(tr.Phases,
				Phase{Kind: Compute, Duration: 40 * time.Millisecond},
				Phase{Kind: Collective, Op: collective.AllReduce, Bytes: 64 << 20, Overlap: overlap},
			)
		}
		return launch(t, RunConfig{Trace: tr, Iterations: 3}).JCT()
	}
	sync := run(false)
	async := run(true)
	if async >= sync {
		t.Errorf("overlapped JCT %v >= synchronous %v", async, sync)
	}
}

// TestLaunchRejectsBadTrace: a trace the datapath cannot carry fails
// before any rank pays MemAlloc or CommInitRank — the deployment never
// sees a communicator.
func TestLaunchRejectsBadTrace(t *testing.T) {
	coll := func(op collective.Op, bytes int64) Trace {
		return Trace{Name: "bad", Phases: []Phase{{Kind: Collective, Op: op, Bytes: bytes}}}
	}
	for _, tc := range []struct {
		name  string
		trace Trace
	}{
		{"empty", Trace{Name: "empty"}},
		{"zero-bytes", coll(collective.AllReduce, 0)},
		{"negative-bytes", coll(collective.AllReduce, -4)},
		{"partial-element", coll(collective.AllReduce, 6)},
		{"two-bytes", coll(collective.Broadcast, 2)},
		{"allgather-below-one-per-rank", coll(collective.AllGather, 12)},
		{"unsupported-op", coll(collective.Op(99), 1024)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, d := newEnv()
			gpus := fourGPUs(d)
			fut := Launch(RunConfig{Dep: d, App: "x", Key: "k", GPUs: gpus, Trace: tc.trace})
			var res *Result
			s.Go("wait", func(p *sim.Proc) { res = fut.Wait(p) })
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
			if res.Err == nil {
				t.Error("invalid trace accepted")
			}
			if n := d.NumComms(); n != 0 {
				t.Errorf("%d communicator(s) created before the trace was refused", n)
			}
		})
	}
}

func TestBreakdownProfilesDiffer(t *testing.T) {
	// The four Fig. 2 profiles must produce distinct breakdown shapes:
	// B memcpy-heavier than A, C compute-heavier than everyone.
	s, d := newEnv()
	profiles := ProductGroupProfiles()
	results := make([]*Result, len(profiles))
	for i, tr := range profiles {
		i := i
		gpus := []topo.GPUID{d.Cluster.Hosts[0].GPUs[i%2], d.Cluster.Hosts[1].GPUs[i%2]}
		if i >= 2 {
			gpus = []topo.GPUID{d.Cluster.Hosts[2].GPUs[i%2], d.Cluster.Hosts[3].GPUs[i%2]}
		}
		fut := Launch(RunConfig{
			Dep: d, App: spec.AppID(rune('a' + i)), Key: "grp" + tr.Name, GPUs: gpus,
			Trace: tr, Iterations: 3,
		})
		s.Go("wait", func(p *sim.Proc) { results[i] = fut.Wait(p) })
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("profile %d: %v", i, r.Err)
		}
		if r.Breakdown.Comm <= 0 {
			t.Errorf("profile %d has no communication fraction", i)
		}
	}
	if results[1].Breakdown.Memcpy <= results[0].Breakdown.Memcpy {
		t.Error("group B should be memcpy-heavier than group A")
	}
	if results[2].Breakdown.Compute <= results[0].Breakdown.Compute {
		t.Error("group C should be compute-heavier than group A")
	}
}

// TestDepthPipelinesIterations: at depth 2 an overlapped collective stays
// in flight across the iteration boundary, so the next one is issued
// before it completes and the datapath latency hides behind it.
func TestDepthPipelinesIterations(t *testing.T) {
	const iters = 20
	tr := Trace{Name: "loop", Phases: []Phase{
		{Kind: Collective, Op: collective.AllReduce, Bytes: 32 << 10, Overlap: true},
	}}
	serial := launch(t, RunConfig{Trace: tr, Iterations: iters, Depth: 1})
	piped := launch(t, RunConfig{Trace: tr, Iterations: iters, Depth: 2})
	if len(piped.IterEnds) != iters || len(piped.IterTimes) != iters {
		t.Fatalf("depth 2 recorded %d ends and %d times, want %d", len(piped.IterEnds), len(piped.IterTimes), iters)
	}
	for i := 1; i < iters; i++ {
		if piped.IterEnds[i] <= piped.IterEnds[i-1] {
			t.Fatalf("IterEnds[%d] = %v, not after %v", i, piped.IterEnds[i], piped.IterEnds[i-1])
		}
	}
	if piped.JCT() >= serial.JCT() {
		t.Errorf("depth 2 JCT %v, not below depth 1's %v", piped.JCT(), serial.JCT())
	}
}

func TestAllGatherTraceCompletes(t *testing.T) {
	res := launch(t, RunConfig{Trace: Trace{Name: "ag", Phases: []Phase{
		{Kind: Collective, Op: collective.AllGather, Bytes: 1 << 20},
	}}, Iterations: 3})
	if len(res.IterEnds) != 3 {
		t.Errorf("IterEnds = %d, want 3", len(res.IterEnds))
	}
}

// TestOnReadyGatesEveryRank: OnReady runs once per rank after its
// communicator exists, and may block: the Fig. 6/8 gate (every rank
// ready, the controller acts, go) holds each rank's first issue.
func TestOnReadyGatesEveryRank(t *testing.T) {
	const open = 50 * time.Millisecond
	s, d := newEnv()
	gpus := fourGPUs(d)
	ready := sim.NewLatch(len(gpus))
	gate := &sim.Event{}
	s.Go("controller", func(p *sim.Proc) {
		ready.Wait(p)
		p.SleepUntil(sim.Time(open))
		gate.Signal(s)
	})
	calls := map[int]int{}
	fut := Launch(RunConfig{
		Dep: d, App: "train", Key: "j", GPUs: gpus,
		Trace: Trace{Name: "loop", Phases: []Phase{
			{Kind: Collective, Op: collective.AllReduce, Bytes: 32 << 10},
		}},
		OnReady: func(p *sim.Proc, rank int, id spec.CommID) {
			calls[rank]++
			if d.NumComms() != 1 {
				t.Errorf("rank %d ready before its communicator exists", rank)
			}
			ready.Done(s)
			gate.Wait(p)
		},
	})
	var res *Result
	s.Go("wait", func(p *sim.Proc) { res = fut.Wait(p) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	for rank := range gpus {
		if calls[rank] != 1 {
			t.Errorf("rank %d: OnReady called %d times", rank, calls[rank])
		}
		hist, err := d.CommTrace(res.CommID, rank)
		if err != nil {
			t.Fatal(err)
		}
		if len(hist) != 1 || hist[0].Start < sim.Time(open) {
			t.Errorf("rank %d: history %+v, want one collective started at or after %v", rank, hist, open)
		}
	}
}
