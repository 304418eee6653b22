package cluster

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"mccs/internal/allocpin"
	"mccs/internal/metrics"
	"mccs/internal/netsim"
	"mccs/internal/policy"
	"mccs/internal/sim"
	"mccs/internal/spec"
	"mccs/internal/topo"
)

// smallConfig shrinks the simulation for unit tests while preserving the
// oversubscribed two-tier shape.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Topo = topo.ClosConfig{
		Spines: 4, Leaves: 6, HostsPerLeaf: 2, GPUsPerHost: 8, NICsPerHost: 8,
		NICBps: 200 * topo.Gbps, LeafSpineBps: 200 * topo.Gbps,
	}
	cfg.NumJobs = 12
	cfg.Iterations = 4
	cfg.ComputeTime = 50 * time.Millisecond
	return cfg
}

func TestRunCompletesAllJobs(t *testing.T) {
	cfg := smallConfig()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != cfg.NumJobs {
		t.Fatalf("jobs = %d", len(res.Jobs))
	}
	for _, j := range res.Jobs {
		if len(j.ARTimes) != cfg.Iterations {
			t.Errorf("job %d has %d AR samples, want %d", j.ID, len(j.ARTimes), cfg.Iterations)
		}
		if j.MeanAR() <= 0 {
			t.Errorf("job %d mean AR = %v", j.ID, j.MeanAR())
		}
		if j.Finished <= j.Started || j.Started < j.Arrived {
			t.Errorf("job %d times inconsistent: %v %v %v", j.ID, j.Arrived, j.Started, j.Finished)
		}
		if j.Size != 16 && j.Size != 32 {
			t.Errorf("job %d size = %d", j.ID, j.Size)
		}
	}
}

func TestSameSeedSameWorkload(t *testing.T) {
	// Different strategies under one seed must see identical job
	// arrivals, sizes, and placements (the premise of the speedup CDF).
	a := smallConfig()
	a.Strategy = StratRandomRing
	b := smallConfig()
	b.Strategy = StratOR
	ra, err := Run(a)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Run(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ra.Jobs {
		if ra.Jobs[i].Size != rb.Jobs[i].Size {
			t.Fatalf("job %d size differs across strategies: %d vs %d",
				i, ra.Jobs[i].Size, rb.Jobs[i].Size)
		}
		if ra.Jobs[i].Arrived != rb.Jobs[i].Arrived {
			t.Fatalf("job %d arrival differs", i)
		}
	}
}

func TestFig11StrategyOrdering(t *testing.T) {
	// OR must beat random rings on average, and OR+FFA must beat OR
	// under random placement; under compact placement FFA adds little
	// (the paper's observation).
	for _, placement := range []Placement{PlacementRandom, PlacementCompact} {
		run := func(st Strategy) *RunResult {
			cfg := smallConfig()
			cfg.Placement = placement
			cfg.Strategy = st
			r, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
		random := run(StratRandomRing)
		or := run(StratOR)
		orffa := run(StratORFFA)

		orSpeed, ffaSpeed := meanSpeedup(t, random, or), meanSpeedup(t, random, orffa)
		t.Logf("%v placement: OR %.2fx, OR+FFA %.2fx vs random ring", placement, orSpeed, ffaSpeed)
		if orSpeed < 1.3 {
			t.Errorf("%v: OR speedup %.2fx, want well above 1x", placement, orSpeed)
		}
		if ffaSpeed < orSpeed*0.95 {
			t.Errorf("%v: OR+FFA %.2fx should not lose to OR %.2fx", placement, ffaSpeed, orSpeed)
		}
		if placement == PlacementRandom && ffaSpeed < orSpeed*1.02 {
			t.Errorf("random placement: OR+FFA %.2fx should exceed OR %.2fx", ffaSpeed, orSpeed)
		}
	}
}

func TestCompactPlacementSpansFewerRacks(t *testing.T) {
	racksOf := func(p Placement) float64 {
		cfg := smallConfig()
		cfg.Placement = p
		cl, err := topo.BuildClos(cfg.Topo)
		if err != nil {
			t.Fatal(err)
		}
		m := &sim11{cfg: cfg, cluster: cl}
		m.placeRng = rand.New(rand.NewSource(7))
		for g := range cl.GPUs {
			m.free = append(m.free, topo.GPUID(g))
		}
		total := 0.0
		njobs := 3 // 96 GPUs / 32 per job
		for i := 0; i < njobs; i++ {
			gpus, ok := m.place(32)
			if !ok {
				t.Fatal("placement failed")
			}
			racks := map[topo.RackID]bool{}
			for _, g := range gpus {
				racks[cl.RackOf(cl.HostOfGPU(g))] = true
			}
			m.take(gpus)
			total += float64(len(racks))
		}
		return total / float64(njobs)
	}
	compact := racksOf(PlacementCompact)
	random := racksOf(PlacementRandom)
	if compact >= random {
		t.Errorf("compact spans %.1f racks vs random %.1f; want fewer", compact, random)
	}
	if compact > 2.01 {
		t.Errorf("compact 32-GPU jobs span %.1f racks, want ~2 (16 GPUs/rack)", compact)
	}
}

// TestConfigValidation checks that Run rejects, before simulating, a config
// it cannot simulate: among them job sizes that cannot be drawn (none), that
// place no GPU (0, -4) or that no free list can hold (1000 on 768 GPUs), and
// a config it cannot honour: an unknown strategy or placement (which ran as
// OR and as random placement) or a negative arrival gap or compute time
// (which the scheduler clamped to zero, so every job arrived at t = 0).
func TestConfigValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*Config)
	}{
		{"zero jobs", func(c *Config) { c.NumJobs = 0 }},
		{"zero model", func(c *Config) { c.ModelBytes = 0 }},
		{"no job sizes", func(c *Config) { c.JobSizes = []int{} }},
		{"negative job size", func(c *Config) { c.JobSizes = []int{-4} }},
		{"zero-GPU job", func(c *Config) { c.JobSizes = []int{0} }},
		{"job larger than the cluster", func(c *Config) { c.JobSizes = []int{1000} }},
		{"unknown strategy", func(c *Config) { c.Strategy = Strategy(7) }},
		{"negative strategy", func(c *Config) { c.Strategy = -1 }},
		{"unknown placement", func(c *Config) { c.Placement = Placement(9) }},
		{"negative mean arrival", func(c *Config) { c.MeanArrival = -time.Millisecond }},
		{"negative compute time", func(c *Config) { c.ComputeTime = -time.Millisecond }},
	} {
		cfg := DefaultConfig()
		tc.edit(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestSpeedupHelpers(t *testing.T) {
	a := &RunResult{Jobs: []JobResult{{ARTimes: []time.Duration{2 * time.Second}}}}
	b := &RunResult{Jobs: []JobResult{{ARTimes: []time.Duration{time.Second}}}}
	sp, err := Speedups(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(sp) != 1 || sp[0] != 2 {
		t.Errorf("speedups = %v", sp)
	}
	if _, err := Speedups(a, &RunResult{}); err == nil {
		t.Error("mismatched job counts accepted")
	}
	if cdf, mean := metrics.CDF(sp), meanSpeedup(t, a, b); mean != 2 || len(cdf) != 1 {
		t.Errorf("cdf=%v mean=%v", cdf, mean)
	}
}

// meanSpeedup is the mean per-job speedup of improved over baseline, the
// figure Fig. 11's summary line prints.
func meanSpeedup(t *testing.T, baseline, improved *RunResult) float64 {
	t.Helper()
	sp, err := Speedups(baseline, improved)
	if err != nil {
		t.Fatal(err)
	}
	return metrics.Summarize(sp).Mean
}

// runHash folds every AllReduce completion time and every job's finish
// time of one run into an FNV-1a style hash.
func runHash(t *testing.T, cfg Config) uint64 {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := uint64(14695981039346656037)
	for _, j := range res.Jobs {
		for _, d := range j.ARTimes {
			h = (h ^ uint64(d)) * 1099511628211
		}
		h = (h ^ uint64(j.Finished)) * 1099511628211
	}
	return h
}

// TestClusterRunHashPinned pins the simulated outcome of cluster.Run: a
// host-speed change to path enumeration, FFA or the job loop must leave
// every completion time where it was. The §6.5 fabric runs at a reduced job
// count; the small fabric queues jobs (12 × 16–32 GPUs on 96), so exits
// that admit waiting jobs and compact placement are covered.
func TestClusterRunHashPinned(t *testing.T) {
	large := DefaultConfig()
	large.NumJobs, large.Iterations = 12, 3
	compact := smallConfig()
	compact.Placement = PlacementCompact
	for _, tc := range []struct {
		name string
		cfg  Config
		want [6]uint64 // seed 1 RandomRing, OR, OR+FFA, then seed 2
	}{
		{"large", large, [6]uint64{0x9f1a1626e050cd9f, 0xb84a79ce7fefa9f5, 0x5eccb4308e582d75, 0x3ba6759f171e8b7b, 0xe45d399230b8e175, 0x5396829ccc1426f}},
		{"small", smallConfig(), [6]uint64{0xc9e7bba8df8d0ed8, 0x4c7e62dd7af8ce9d, 0x67b4b1f5987c37a1, 0xb7cd55cfa24e9402, 0xa40bb3aa95de761b, 0x849bdd28a0b146a7}},
		{"compact", compact, [6]uint64{0x4caf3ef913e49948, 0x9be5d6b691837a1, 0x3002e09b61c37a1, 0x144278f90d7deb97, 0xce0d234af39146a7, 0xaf29f2cd397346a7}},
	} {
		var got [6]uint64
		for i := range got {
			cfg := tc.cfg
			cfg.Seed, cfg.Strategy = int64(1+i/3), Strategy(i%3)
			got[i] = runHash(t, cfg)
		}
		if got != tc.want {
			t.Errorf("%s: hashes = %#x, want %#x", tc.name, got, tc.want)
		}
	}
}

// TestRunStartsNoGoroutine pins that every process of a run — the arrival
// process, the join and each job — is a step function: sampled before every
// event, the goroutine count never rises above what it was before the run.
// (With a goroutine per process it read 2 more, plus one per running job.)
func TestRunStartsNoGoroutine(t *testing.T) {
	cfg := smallConfig()
	s := sim.New()
	before, peak, events := runtime.NumGoroutine(), 0, 0
	s.SetEventObserver(func(sim.Time, uint64, sim.EventKind, sim.Handler) {
		events++
		peak = max(peak, runtime.NumGoroutine())
	})
	res, err := run(cfg, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != cfg.NumJobs || events == 0 {
		t.Fatalf("%d jobs over %d events", len(res.Jobs), events)
	}
	if peak > before {
		t.Errorf("%d goroutines during the run, %d before it", peak, before)
	}
}

// TestRunAllocations pins what a whole cluster.Run on smallConfig (12 jobs,
// 4 iterations, 96 GPUs) allocates under each strategy. The policy and path
// code allocates a constant per job and nothing per decision once the run's
// buffers have grown: per job a fixed handful (its name, rank and channel
// tables, ring orders and process), per run one table of job records, the
// connection list and, under OR+FFA, the FFA workspace, which grow like any
// slice, and paths in chunks shared by many NIC pairs; nothing per rank, per
// NIC pair or per iteration. With per-rank maps in LocalityRing and
// ringCount, a path list per NIC pair, FFA maps grown flow by flow and
// AllReduce times appended one by one it read 1 588, 1 755 and 2 472; with
// a record per job and a map-returning FFA per decision, 486, 380 and 673;
// with a resolved send list (a netsim.FlowOpts per ring edge) and a host
// scratch beside the connections, 483, 376 and 387.
func TestRunAllocations(t *testing.T) {
	for st, want := range map[Strategy]float64{StratRandomRing: 477, StratOR: 370, StratORFFA: 374} {
		cfg := smallConfig()
		cfg.Strategy = st
		got := allocpin.Min(3, func() {
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
		})
		if got != want {
			t.Errorf("%v: Run allocates %v times, want %v", st, got, want)
		}
	}
}

// referenceSends is the options of m's running jobs' flows as
// sendIteration built them flow by flow before a job's connections were
// routed once per decision: per ring edge, the options it passed to
// Fabric.Send, with as route the one the fabric itself then picked — the
// ECMP hash of the label over the pair's cached paths — unless assign,
// FFA's map over the running jobs, pinned the edge.
func referenceSends(m *sim11, assign policy.Assignment) []netsim.FlowOpts {
	var out []netsim.FlowOpts
	for _, j := range m.active {
		n, nrings := len(j.gpus), len(j.info.Strategy.Channels)
		perEdge := float64(m.cfg.ModelBytes) / float64(nrings) * 2 * float64(n-1) / float64(n)
		for ri, ch := range j.info.Strategy.Channels {
			for pos := 0; pos < n; pos++ {
				from := j.info.Ranks[ch.Order[pos]]
				to := j.info.Ranks[ch.Order[(pos+1)%n]]
				if from.Host == to.Host {
					continue
				}
				src, dst := m.cluster.NICNode(from.NIC), m.cluster.NICNode(to.NIC)
				label := flowLabel(uint64(m.cfg.Seed), j.id, ri, from.Rank, to.Rank)
				paths := m.cluster.Net.PathsBetween(src, dst)
				route := paths[netsim.ECMPIndex(src, dst, label, len(paths))]
				if idx, ok := assign[j.info.ID][spec.ConnKey{Channel: ri, FromRank: from.Rank, ToRank: to.Rank}]; ok {
					route = paths[idx%len(paths)]
				}
				out = append(out, netsim.FlowOpts{Src: src, Dst: dst, Bytes: perEdge, Route: route, Label: label, OnDone: j})
			}
		}
	}
	return out
}

// TestSendListsMatchPerFlowRouting checks, before every event of a run on
// smallConfig under each strategy and both placements, the options
// sendIteration builds from the run's connections (sendOpts over each
// running job's window of m.flows) against referenceSends: the same fields
// in the same order, each job's window where its offset says, and every
// route the very slice (compared by address) the fabric's ECMP would pick
// under RandomRing and OR, and the one FFA's map pins under OR+FFA.
func TestSendListsMatchPerFlowRouting(t *testing.T) {
	for _, placement := range []Placement{PlacementRandom, PlacementCompact} {
		for _, st := range []Strategy{StratRandomRing, StratOR, StratORFFA} {
			cfg := smallConfig()
			cfg.Placement, cfg.Strategy = placement, st
			s := sim.New()
			m, err := newSim(cfg, s)
			if err != nil {
				t.Fatal(err)
			}
			var ids []int
			var assign policy.Assignment
			// bad stops this run's checks at its first mismatch; the other
			// runs still check theirs.
			checked, bad := 0, false
			fail := func(format string, args ...any) {
				t.Errorf("%v %v: "+format, append([]any{placement, st}, args...)...)
				bad = true
			}
			s.SetEventObserver(func(sim.Time, uint64, sim.EventKind, sim.Handler) {
				if bad {
					return
				}
				var now []int
				for _, j := range m.active {
					now = append(now, j.id)
				}
				if st == StratORFFA && !slices.Equal(now, ids) {
					var infos []spec.CommInfo
					for _, j := range m.active {
						infos = append(infos, j.info)
					}
					ids, assign = now, policy.FFA(m.cluster, infos)
				}
				want := referenceSends(m, assign)
				var got []netsim.FlowOpts
				off := 0
				for _, j := range m.active {
					if j.flowOff != off {
						fail("job %d's flows start at %d, want %d", j.id, j.flowOff, off)
					}
					off += j.nflow
					for i := j.flowOff; i < j.flowOff+j.nflow && i < len(m.flows); i++ {
						got = append(got, m.sendOpts(j, &m.flows[i]))
					}
				}
				if len(m.flows) != off || len(got) != len(want) {
					fail("%d flows (%d in windows) for jobs %v, want %d", len(m.flows), off, now, len(want))
					return
				}
				for i, g := range got {
					w := want[i]
					same := len(g.Route) == len(w.Route) && (len(g.Route) == 0 || &g.Route[0] == &w.Route[0])
					g.Route, w.Route = nil, nil
					if !same || g.Src != w.Src || g.Dst != w.Dst || g.Bytes != w.Bytes || g.Label != w.Label || g.OnDone != w.OnDone ||
						g.MaxRate != 0 || g.FixedRate != 0 || g.External || g.Tag != w.Tag || g.OnDoneArg != 0 {
						fail("send %d of jobs %v = %+v (same route %v), want %+v", i, now, g, same, w)
						return
					}
					checked++
				}
			})
			if _, err := m.simulate(); err != nil {
				t.Fatal(err)
			}
			if checked == 0 && !bad {
				t.Errorf("%v %v: no send checked", placement, st)
			}
		}
	}
}
