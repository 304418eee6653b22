// Schedule-fingerprint golden: the (at, seq) observer stream of one
// representative multi-tenant run, hashed and pinned. The stream is a
// complete fingerprint of the simulation schedule (see
// sim.Scheduler.SetEventObserver), so any sim-core change that perturbs the
// interleaving — and would therefore silently invalidate the chaos
// corpus and every same-seed golden — fails here loudly instead.
//
// If this test fails, the change is NOT schedule-neutral. Either make
// it neutral, or deliberately re-pin the constants below and re-pin
// every schedule-derived golden in the same commit (chaos corpus,
// orchestrator schedule, tuner snapshots), explaining why in CHANGES.md.
package mccs_test

import (
	"fmt"
	"hash/fnv"
	"testing"

	"mccs/internal/collective"
	"mccs/internal/collectivetest"
	"mccs/internal/harness"
	"mccs/internal/mccsd"
	"mccs/internal/ncclsim"
	"mccs/internal/sim"
	"mccs/internal/spec"
	"mccs/internal/telemetry"
	"mccs/internal/topo"
	"mccs/internal/trace"
	"mccs/internal/workload"
)

// fingerprint accumulates FNV-1a over the little-endian (at, seq) pairs
// of every fired event.
type fingerprint struct {
	hash   uint64
	events int
}

func observe(s *sim.Scheduler) *fingerprint {
	const fnvOffset, fnvPrime = uint64(14695981039346656037), uint64(1099511628211)
	f := &fingerprint{hash: fnvOffset}
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			f.hash ^= v & 0xff
			f.hash *= fnvPrime
			v >>= 8
		}
	}
	s.SetEventObserver(func(at sim.Time, seq uint64, _ sim.EventKind, _ sim.Handler) {
		mix(uint64(at))
		mix(seq)
		f.events++
	})
	return f
}

// Pinned fingerprint of the run below, captured from the container/heap
// scheduler core before the pooled-arena overhaul (PR 8) and preserved
// byte-for-byte by it.
const (
	goldenScheduleHash   = uint64(0x859dfc2a04ffa546)
	goldenScheduleEvents = 5195
)

func TestScheduleFingerprintGolden(t *testing.T) {
	t.Run("fig2-tenants", testFig2Fingerprint)
	for _, c := range collectiveGoldens {
		c := c
		t.Run(c.name, func(t *testing.T) { c.check(t) })
	}
}

func testFig2Fingerprint(t *testing.T) {
	env, err := harness.NewEnv(harness.EnvOptions{System: ncclsim.MCCS})
	if err != nil {
		t.Fatal(err)
	}
	fp := observe(env.S)

	// The Fig. 2 shape: four production-profile tenants training
	// concurrently through the service — every layer (shim, proxy,
	// transport, fabric, gpusim) contributes events.
	profiles := workload.ProductGroupProfiles()
	results := make([]*workload.Result, len(profiles))
	for pi, tr := range profiles {
		pi := pi
		g := func(h topo.HostID, idx int) topo.GPUID { return env.Cluster.Hosts[h].GPUs[idx] }
		gpus := []topo.GPUID{g(topo.HostID(pi/2), pi%2), g(topo.HostID(2+pi/2), pi%2)}
		fut := workload.Launch(workload.RunConfig{
			Dep: env.Deployment, App: spec.AppID(tr.Name), Key: tr.Name,
			GPUs: gpus, Trace: tr, Iterations: 2,
		})
		env.S.Go("collect", func(p *sim.Proc) { results[pi] = fut.Wait(p) })
	}
	if err := env.S.Run(); err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r == nil || r.Err != nil {
			t.Fatalf("tenant run failed: %+v", r)
		}
	}
	if fp.hash != goldenScheduleHash || fp.events != goldenScheduleEvents {
		t.Fatalf("schedule fingerprint changed: hash=%#x events=%d, want hash=%#x events=%d\n"+
			"The simulation schedule is no longer byte-identical; see this test's package comment.",
			fp.hash, fp.events, goldenScheduleHash, goldenScheduleEvents)
	}
}

// collectiveGolden pins one collective on the testbed under one
// strategy: the schedule fingerprint of the plain run, and the proxy's
// step accounting (mccs_proxy_steps_total and the KindStep span stream)
// of the instrumented run. Results are checked against the
// schedule-free collectivetest.Oracle in both runs.
type collectiveGolden struct {
	name     string
	ranks    int // first `ranks` GPUs of the testbed in host order
	strategy func(n int) spec.Strategy
	op       collective.Op
	root     int
	count    int64 // elements (per-rank contribution for AllGather)

	hash   uint64
	events int
	// steps is the mccs_proxy_steps_total increment, stepSpans/stepHash
	// the count and FNV-1a digest of the emitted KindStep spans.
	steps     int64
	stepSpans int
	stepHash  uint64
}

// ringStrategy builds nch pinned ring channels: rank order, and (second
// channel) rank order with each host's two GPUs swapped — the NIC
// striping shape the providers install.
func ringStrategy(nch int) func(n int) spec.Strategy {
	return func(n int) spec.Strategy {
		var st spec.Strategy
		for ci := 0; ci < nch; ci++ {
			order := make([]int, n)
			for i := range order {
				order[i] = i ^ ci
			}
			st.Channels = append(st.Channels, spec.ChannelSpec{Order: order, Route: ci})
		}
		return st
	}
}

func treeStrategy(n int) spec.Strategy {
	st := ringStrategy(2)(n)
	st.TreeThreshold = 1 << 20
	return st
}

func hdStrategy(nch int) func(n int) spec.Strategy {
	return func(n int) spec.Strategy {
		st := ringStrategy(nch)(n)
		st.Algorithm = spec.AlgoHD
		return st
	}
}

const (
	// goldenMinSlice shrinks the slice size so modest buffers stream
	// several slices per ring step: with multiSlice elements a ring
	// region is ~64 KB at 8 ranks — 4 slices on one channel, 2 on two —
	// and a rooted chain's whole-buffer hop hits the 8-slice cap.
	goldenMinSlice = 16 << 10
	multiSlice     = 131_075
	hdCount        = 100_003
)

// Pinned at the parent of the schedule-IR refactor (PR 12), where the
// ring, tree and halving-doubling executors were still three functions.
// The one interpreter reproduces every (hash, events) pair unchanged, and
// the step accounting of ring AllReduce/AllGather/ReduceScatter and of
// halving-doubling byte for byte. The step accounting of eight rows was
// re-pinned with it, for the one counting rule (a step counts when the
// rank takes part in it): ring Broadcast/Reduce and the ring fallback
// row drop from n(n-1) to 2(n-1) per channel — a chain hop has one
// sender and one receiver, the other ranks' idle rounds are no longer
// counted or spanned — and the three tree rows keep their counter and
// gain the KindStep spans the tree never emitted.
var collectiveGoldens = []collectiveGolden{
	{name: "ring/AllReduce/ch1", ranks: 8, strategy: ringStrategy(1), op: collective.AllReduce, count: multiSlice,
		hash: 0xe7823ad680f57c8b, events: 2790, steps: 112, stepSpans: 112, stepHash: 0x81f3fe1192d9ff2a},
	{name: "ring/AllReduce/ch2", ranks: 8, strategy: ringStrategy(2), op: collective.AllReduce, count: multiSlice,
		hash: 0x3ed9df6f87784689, events: 2664, steps: 224, stepSpans: 224, stepHash: 0x48ce79e689659583},
	{name: "ring/AllGather/ch1", ranks: 8, strategy: ringStrategy(1), op: collective.AllGather, count: multiSlice / 8,
		hash: 0x8633a75738734ada, events: 1247, steps: 56, stepSpans: 56, stepHash: 0xceb6a8fcec2452b9},
	{name: "ring/AllGather/ch2", ranks: 8, strategy: ringStrategy(2), op: collective.AllGather, count: multiSlice / 8,
		hash: 0x765774f188d1496c, events: 1259, steps: 112, stepSpans: 112, stepHash: 0x8f8c1cbb95f23ff5},
	{name: "ring/ReduceScatter/ch1", ranks: 8, strategy: ringStrategy(1), op: collective.ReduceScatter, count: multiSlice,
		hash: 0xb11046bbc8a85889, events: 1465, steps: 56, stepSpans: 56, stepHash: 0xe256f425925461a},
	{name: "ring/ReduceScatter/ch2", ranks: 8, strategy: ringStrategy(2), op: collective.ReduceScatter, count: multiSlice,
		hash: 0xb6814de0308bebce, events: 1413, steps: 112, stepSpans: 112, stepHash: 0x2f0bc0c413133e6d},
	{name: "ring/Broadcast3/ch1", ranks: 8, strategy: ringStrategy(1), op: collective.Broadcast, root: 3, count: multiSlice,
		hash: 0x248aa2aa0b6501d3, events: 447, steps: 14, stepSpans: 14, stepHash: 0xaac3a557e25d8fbc},
	{name: "ring/Broadcast3/ch2", ranks: 8, strategy: ringStrategy(2), op: collective.Broadcast, root: 3, count: multiSlice,
		hash: 0x96c99ce2644524e9, events: 791, steps: 28, stepSpans: 28, stepHash: 0x2eef5044c3d98a51},
	{name: "ring/Reduce5/ch1", ranks: 8, strategy: ringStrategy(1), op: collective.Reduce, root: 5, count: multiSlice,
		hash: 0x854ba9bc5757597, events: 447, steps: 14, stepSpans: 14, stepHash: 0x44a09e5c37e9aa9e},
	{name: "ring/Reduce5/ch2", ranks: 8, strategy: ringStrategy(2), op: collective.Reduce, root: 5, count: multiSlice,
		hash: 0x18f755e83de1bec3, events: 791, steps: 28, stepSpans: 28, stepHash: 0x468743082781cbbd},
	{name: "tree/AllReduce", ranks: 8, strategy: treeStrategy, op: collective.AllReduce, count: 1000,
		hash: 0x82bf8f86dab94f85, events: 203, steps: 28, stepSpans: 28, stepHash: 0x922fdb930eb1e1bf},
	{name: "tree/Broadcast", ranks: 8, strategy: treeStrategy, op: collective.Broadcast, count: 1000,
		hash: 0xe36a4fc7f7dd291a, events: 169, steps: 14, stepSpans: 14, stepHash: 0x73294cba93fef9a},
	{name: "tree/Reduce", ranks: 8, strategy: treeStrategy, op: collective.Reduce, count: 1000,
		hash: 0xe6eabf575223b854, events: 169, steps: 14, stepSpans: 14, stepHash: 0x73012069a6b8326},
	// A non-zero root is not on the provisioned tree: it stays on the rings.
	{name: "tree/Broadcast3-falls-back", ranks: 8, strategy: treeStrategy, op: collective.Broadcast, root: 3, count: 1000,
		hash: 0xeac99d68c15cae9b, events: 245, steps: 28, stepSpans: 28, stepHash: 0x4779d752aa442d78},
	{name: "hd/n8/ch1", ranks: 8, strategy: hdStrategy(1), op: collective.AllReduce, count: hdCount,
		hash: 0xdebe571a890f09e8, events: 361, steps: 48, stepSpans: 48, stepHash: 0xc46961f0654e6c8d},
	{name: "hd/n8/ch2", ranks: 8, strategy: hdStrategy(2), op: collective.AllReduce, count: hdCount,
		hash: 0x3d662fb3248751f4, events: 614, steps: 96, stepSpans: 96, stepHash: 0xa1d84d5d82e72401},
	{name: "hd/n6/ch1", ranks: 6, strategy: hdStrategy(1), op: collective.AllReduce, count: hdCount,
		hash: 0xf3c881987e6be8ed, events: 199, steps: 24, stepSpans: 24, stepHash: 0xb0b89d3aa88f79ad},
	{name: "hd/n6/ch2", ranks: 6, strategy: hdStrategy(2), op: collective.AllReduce, count: hdCount,
		hash: 0x1aa92404ed5d1eeb, events: 322, steps: 48, stepSpans: 48, stepHash: 0x9ab8be12b19dc17f},
	// Fewer elements than butterfly participants: zero-length exchanges.
	{name: "hd/n8/tiny", ranks: 8, strategy: hdStrategy(1), op: collective.AllReduce, count: 5,
		hash: 0x80a14cad5e86c4fd, events: 310, steps: 48, stepSpans: 48, stepHash: 0x6e6010a218fa2abc},
}

func (c collectiveGolden) check(t *testing.T) {
	mutate := func(cfg *mccsd.Config) {
		cfg.Proxy.MinSliceBytes = goldenMinSlice
		cfg.Strategy = func(_ *topo.Cluster, info *spec.CommInfo) spec.Strategy {
			return c.strategy(info.NumRanks())
		}
	}
	plain, err := harness.NewEnv(harness.EnvOptions{System: ncclsim.MCCS, Mutate: mutate})
	if err != nil {
		t.Fatal(err)
	}
	fp := observe(plain.S)
	c.run(t, plain)
	if fp.hash != c.hash || fp.events != c.events {
		t.Errorf("schedule fingerprint: hash=%#x events=%d, want hash=%#x events=%d", fp.hash, fp.events, c.hash, c.events)
	}

	inst, err := harness.NewEnv(harness.EnvOptions{
		System: ncclsim.MCCS, Mutate: mutate,
		Observers: harness.Observers{TraceCap: 1 << 16, TelemetryEvery: telemetry.DefaultInterval},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.run(t, inst)
	steps := telemetry.Of(inst.S).Counter("mccs_proxy_steps_total", "steps", telemetry.L("tenant", "golden")).Value()
	h := fnv.New64a()
	spans := 0
	for _, sp := range trace.Of(inst.S).Snapshot().Spans {
		if sp.Kind != trace.KindStep {
			continue
		}
		spans++
		fmt.Fprintln(h, sp.Op, sp.Start, sp.End, sp.Busy, sp.Host, sp.GPU, sp.Comm, sp.Rank, sp.Peer, sp.Channel, sp.Gen, sp.Step, sp.Seq, sp.Bytes)
	}
	if steps != c.steps || spans != c.stepSpans || h.Sum64() != c.stepHash {
		t.Errorf("step accounting: steps=%d spans=%d hash=%#x, want steps=%d spans=%d hash=%#x",
			steps, spans, h.Sum64(), c.steps, c.stepSpans, c.stepHash)
	}
}

// run executes the case's collective once on env with backed buffers and
// checks every rank's result against the oracle.
func (c collectiveGolden) run(t *testing.T, env *harness.Env) {
	t.Helper()
	var gpus []topo.GPUID
	for _, h := range env.Cluster.Hosts {
		gpus = append(gpus, h.GPUs...)
	}
	gpus = gpus[:c.ranks]
	inputs := make([][]float32, c.ranks)
	for r := range inputs {
		inputs[r] = make([]float32, c.count)
		for j := range inputs[r] {
			inputs[r][j] = float32((r + 1) * (j%5 + 1) % 11)
		}
	}
	want, err := collectivetest.Oracle(c.op, c.root, inputs)
	if err != nil {
		t.Fatal(err)
	}
	got := make([][]float32, c.ranks)
	for rank, gpu := range gpus {
		rank, gpu := rank, gpu
		f := env.Deployment.Service(env.Cluster.HostOfGPU(gpu)).Frontend("golden")
		env.S.Go("tenant", func(p *sim.Proc) {
			fail := func(err error) bool {
				if err != nil {
					t.Errorf("rank %d: %v", rank, err)
				}
				return err != nil
			}
			outElems := c.count
			if c.op == collective.AllGather {
				outElems *= int64(c.ranks)
			}
			out, err := f.MemAlloc(p, gpu, outElems*4, true)
			if fail(err) {
				return
			}
			in := out
			if c.op == collective.AllGather {
				if in, err = f.MemAlloc(p, gpu, c.count*4, true); fail(err) {
					return
				}
			}
			copy(in.Data(), inputs[rank])
			comm, err := f.CommInitRank(p, "golden", c.ranks, rank, gpu)
			if fail(err) {
				return
			}
			var h *mccsd.OpHandle
			switch c.op {
			case collective.AllReduce:
				h, err = comm.AllReduce(p, nil, out, c.count, nil)
			case collective.AllGather:
				h, err = comm.AllGather(p, in, out, c.count, nil)
			case collective.ReduceScatter:
				h, err = comm.ReduceScatter(p, nil, out, c.count, nil)
			case collective.Broadcast:
				h, err = comm.Broadcast(p, out, c.count, c.root, nil)
			case collective.Reduce:
				h, err = comm.Reduce(p, out, c.count, c.root, nil)
			}
			if fail(err) {
				return
			}
			h.Wait(p)
			got[rank] = out.Data()
		})
	}
	if err := env.S.Run(); err != nil {
		t.Fatal(err)
	}
	starts, lens := collectivetest.Regions(c.count, c.ranks)
	for rank := range got {
		if got[rank] == nil {
			t.Fatalf("rank %d produced no result", rank)
		}
		lo, hi := int64(0), int64(len(want[rank]))
		switch {
		case c.op == collective.Reduce && rank != c.root:
			continue // unspecified off the root
		case c.op == collective.ReduceScatter:
			lo, hi = starts[rank], starts[rank]+lens[rank] // only the owned region is specified
		}
		for j := lo; j < hi; j++ {
			if got[rank][j] != want[rank][j] {
				t.Fatalf("rank %d elem %d = %g, want %g", rank, j, got[rank][j], want[rank][j])
			}
		}
	}
}
