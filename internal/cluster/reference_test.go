package cluster

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"mccs/internal/netsim"
	"mccs/internal/policy"
	"mccs/internal/sim"
	"mccs/internal/spec"
	"mccs/internal/topo"
)

// referenceRun is cluster.Run as it stood before its job loop was rewritten
// for speed (cached switch-pair paths, step-function jobs, a reused FFA
// workspace, connections routed once per decision): blocking goroutine
// processes that Sleep and Wait, a map of running jobs, every flow routed
// per iteration — pinned through policy.FFA's Assignment map or left to the
// fabric's ECMP — and FFA rerun from scratch on every join and exit. It is
// the oracle of the cluster layer only: the ring, path and FFA code under
// it have references of their own. cfg must be valid (Run checks that).
func referenceRun(cfg Config) (*RunResult, error) {
	cl, err := topo.BuildClos(cfg.Topo)
	if err != nil {
		return nil, err
	}
	s := sim.New()
	m := &refSim{
		cfg: cfg, s: s, cluster: cl,
		fabric:     netsim.NewFabric(s, cl.Net),
		arrivalRng: rand.New(rand.NewSource(cfg.Seed)),
		placeRng:   rand.New(rand.NewSource(cfg.Seed + 1)),
		ringRng:    rand.New(rand.NewSource(cfg.Seed + 2)),
		free:       make([]topo.GPUID, len(cl.GPUs)),
		active:     make(map[int]*refJob),
		results:    make([]JobResult, cfg.NumJobs),
		done:       sim.NewLatch(cfg.NumJobs),
	}
	for g := range m.free {
		m.free[g] = topo.GPUID(g)
	}

	s.Go("arrivals", func(p *sim.Proc) {
		for i := 0; i < cfg.NumJobs; i++ {
			if i > 0 {
				gap := time.Duration(m.arrivalRng.ExpFloat64() * float64(cfg.MeanArrival))
				p.Sleep(gap)
			}
			size := cfg.JobSizes[m.arrivalRng.Intn(len(cfg.JobSizes))]
			m.queue = append(m.queue, &refPending{id: i, size: size, arrived: p.Now()})
			m.results[i] = JobResult{ID: i, Size: size, Arrived: p.Now()}
			m.tryPlace()
		}
	})
	s.Go("join", func(p *sim.Proc) {
		m.done.Wait(p)
	})
	if err := s.Run(); err != nil {
		return nil, err
	}
	return &RunResult{Jobs: m.results}, nil
}

type refJob struct {
	id    int
	gpus  []topo.GPUID
	rings [][]int
	// routes maps a connection to its path index; a missing key means ECMP.
	routes map[spec.ConnKey]int
	info   spec.CommInfo

	s        *sim.Scheduler
	inflight int
	iterDone sim.WaitQueue
}

func (j *refJob) OnEvent(uint64) {
	if j.inflight--; j.inflight == 0 {
		j.iterDone.WakeOne(j.s)
	}
}

type refPending struct {
	id      int
	size    int
	arrived sim.Time
}

type refSim struct {
	cfg        Config
	s          *sim.Scheduler
	cluster    *topo.Cluster
	fabric     *netsim.Fabric
	arrivalRng *rand.Rand
	placeRng   *rand.Rand
	ringRng    *rand.Rand

	free    []topo.GPUID
	queue   []*refPending
	active  map[int]*refJob
	results []JobResult
	done    *sim.Latch
}

func (m *refSim) tryPlace() {
	for len(m.queue) > 0 {
		next := m.queue[0]
		gpus, ok := m.place(next.size)
		if !ok {
			return
		}
		m.queue = m.queue[1:]
		m.start(next, gpus)
	}
}

func (m *refSim) place(n int) ([]topo.GPUID, bool) {
	if len(m.free) < n {
		return nil, false
	}
	var chosen []topo.GPUID
	switch m.cfg.Placement {
	case PlacementCompact:
		byRack := make(map[topo.RackID][]topo.GPUID)
		for _, g := range m.free {
			r := m.cluster.RackOf(m.cluster.HostOfGPU(g))
			byRack[r] = append(byRack[r], g)
		}
		racks := make([]topo.RackID, 0, len(byRack))
		for r := range byRack {
			racks = append(racks, r)
		}
		sort.Slice(racks, func(i, j int) bool {
			a, b := racks[i], racks[j]
			if len(byRack[a]) != len(byRack[b]) {
				return len(byRack[a]) > len(byRack[b])
			}
			return a < b
		})
		for _, r := range racks {
			for _, g := range byRack[r] {
				chosen = append(chosen, g)
				if len(chosen) == n {
					return chosen, true
				}
			}
		}
		return nil, false
	default:
		free := slices.Clone(m.free)
		m.placeRng.Shuffle(len(free), func(i, j int) { free[i], free[j] = free[j], free[i] })
		return free[:n], true
	}
}

func (m *refSim) ringCount(gpus []topo.GPUID) int {
	perHost := make(map[topo.HostID]int)
	for _, g := range gpus {
		perHost[m.cluster.HostOfGPU(g)]++
	}
	minPerHost := len(gpus)
	for _, c := range perHost {
		if c < minPerHost {
			minPerHost = c
		}
	}
	n := m.cfg.Topo.Spines
	if minPerHost < n {
		n = minPerHost
	}
	if n < 1 {
		n = 1
	}
	return n
}

func (m *refSim) start(pj *refPending, gpus []topo.GPUID) {
	for _, g := range gpus {
		i, _ := slices.BinarySearch(m.free, g)
		m.free = slices.Delete(m.free, i, i+1)
	}
	j := &refJob{id: pj.id, gpus: gpus, s: m.s}
	j.info = spec.CommInfo{ID: spec.CommID(pj.id + 1), App: spec.AppID(fmt.Sprintf("job%d", pj.id))}
	for rank, g := range gpus {
		j.info.Ranks = append(j.info.Ranks, spec.RankInfo{
			Rank: rank, GPU: g,
			Host: m.cluster.HostOfGPU(g),
			NIC:  m.cluster.NICOfGPU(g),
		})
	}
	nrings := m.ringCount(gpus)
	var base []int
	switch m.cfg.Strategy {
	case StratRandomRing:
		base = m.ringRng.Perm(len(gpus))
	default:
		base = policy.LocalityRing(m.cluster, j.info.Ranks)
	}
	j.rings = spec.StripeChannelOrders(base, j.info.Ranks, nrings)
	for _, order := range j.rings {
		j.info.Strategy.Channels = append(j.info.Strategy.Channels,
			spec.ChannelSpec{Order: order, Route: spec.RouteECMP})
	}

	m.active[j.id] = j
	m.results[j.id].Started = m.s.Now()
	if m.cfg.Strategy == StratORFFA {
		m.reassignRoutes()
	}
	m.s.Go(fmt.Sprintf("job%d", j.id), func(p *sim.Proc) { m.runJob(p, j) })
}

func (m *refSim) reassignRoutes() {
	var infos []spec.CommInfo
	ids := make([]int, 0, len(m.active))
	for id := range m.active {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		infos = append(infos, m.active[id].info)
	}
	assign := policy.FFA(m.cluster, infos)
	for _, id := range ids {
		j := m.active[id]
		j.routes = assign[j.info.ID]
	}
}

func (m *refSim) runJob(p *sim.Proc, j *refJob) {
	n := len(j.gpus)
	nrings := len(j.rings)
	perEdge := float64(m.cfg.ModelBytes) / float64(nrings) * 2 * float64(n-1) / float64(n)

	for it := 0; it < m.cfg.Iterations; it++ {
		if m.cfg.ComputeTime > 0 {
			p.Sleep(m.cfg.ComputeTime)
		}
		start := p.Now()
		for ri, order := range j.rings {
			for pos := 0; pos < n; pos++ {
				from := j.info.Ranks[order[pos]]
				to := j.info.Ranks[order[(pos+1)%n]]
				if from.Host == to.Host {
					continue
				}
				var route []netsim.LinkID
				if idx, ok := j.routes[spec.ConnKey{Channel: ri, FromRank: from.Rank, ToRank: to.Rank}]; ok {
					paths := m.cluster.PathsBetweenNICs(from.NIC, to.NIC)
					route = paths[idx%len(paths)]
				}
				j.inflight++
				m.fabric.Send(&netsim.FlowOpts{
					Src: m.cluster.NICNode(from.NIC), Dst: m.cluster.NICNode(to.NIC),
					Bytes:  perEdge,
					Route:  route,
					Label:  flowLabel(uint64(m.cfg.Seed), j.id, ri, from.Rank, to.Rank),
					OnDone: j,
				})
			}
		}
		if j.inflight > 0 {
			j.iterDone.Wait(p)
		}
		m.results[j.id].ARTimes = append(m.results[j.id].ARTimes, time.Duration(p.Now().Sub(start)))
	}
	m.results[j.id].Finished = p.Now()
	for _, g := range j.gpus {
		i, _ := slices.BinarySearch(m.free, g)
		m.free = slices.Insert(m.free, i, g)
	}
	delete(m.active, j.id)
	if m.cfg.Strategy == StratORFFA {
		m.reassignRoutes()
	}
	m.tryPlace()
	m.done.Done(m.s)
}

// configFromBytes decodes b into a valid config: 1–4 spines, 1–8 leaves,
// 1–4 hosts per leaf, 1–8 GPUs per host on a divisor of that many NICs,
// NICs at 25–200 Gbps and spine links at 50–400 Gbps; 1–20 jobs of 1–3
// sizes up to the cluster's GPU count, 1–5 iterations, 0–120 ms of
// compute, 0–300 ms mean arrival gaps, 1–64 MB models; either placement,
// any strategy and seed. Missing bytes read as zero.
func configFromBytes(b []byte) Config {
	next := func(n int) int {
		if len(b) == 0 {
			return 0
		}
		v := int(b[0]) % n
		b = b[1:]
		return v
	}
	var cfg Config
	t := &cfg.Topo
	t.Spines = 1 + next(4)
	t.Leaves = 1 + next(8)
	t.HostsPerLeaf = 1 + next(4)
	t.GPUsPerHost = 1 + next(8)
	var divisors []int
	for d := 1; d <= t.GPUsPerHost; d++ {
		if t.GPUsPerHost%d == 0 {
			divisors = append(divisors, d)
		}
	}
	t.NICsPerHost = divisors[next(len(divisors))]
	t.NICBps = float64(25*(1+next(8))) * topo.Gbps
	t.LeafSpineBps = float64(50*(1+next(8))) * topo.Gbps
	gpus := t.Leaves * t.HostsPerLeaf * t.GPUsPerHost
	cfg.NumJobs = 1 + next(20)
	cfg.JobSizes = make([]int, 1+next(3))
	for i := range cfg.JobSizes {
		cfg.JobSizes[i] = 1 + next(gpus)>>next(3)
	}
	cfg.Iterations = 1 + next(5)
	cfg.ComputeTime = time.Duration(next(121)) * time.Millisecond
	cfg.MeanArrival = time.Duration(next(61)) * time.Millisecond
	cfg.ModelBytes = int64(1+next(64)) << 20
	cfg.Placement = Placement(next(2))
	cfg.Strategy = Strategy(next(3))
	cfg.Seed = int64(next(256))<<8 | int64(next(256))
	return cfg
}

// checkMatchesReference fails t unless Run and referenceRun give cfg
// bit-identical job results.
func checkMatchesReference(t *testing.T, cfg Config) {
	t.Helper()
	got, err := Run(cfg)
	if err != nil {
		t.Fatalf("%+v: %v", cfg, err)
	}
	want, err := referenceRun(cfg)
	if err != nil {
		t.Fatalf("%+v: reference: %v", cfg, err)
	}
	for i := range want.Jobs {
		g, w := &got.Jobs[i], &want.Jobs[i]
		if g.ID != w.ID || g.Size != w.Size || g.Arrived != w.Arrived || g.Started != w.Started ||
			g.Finished != w.Finished || !slices.Equal(g.ARTimes, w.ARTimes) {
			t.Fatalf("%+v: job %d = %+v, reference %+v", cfg, i, *g, *w)
		}
	}
}

// TestRunMatchesReference runs 200 generated configs through Run and
// referenceRun: every job's arrival, start, finish and AllReduce times must
// be bit-identical. It is FuzzClusterRun's quick form.
func TestRunMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	b := make([]byte, 24)
	for range 200 {
		rng.Read(b)
		checkMatchesReference(t, configFromBytes(b))
	}
}

// FuzzClusterRun decodes its bytes into a config (configFromBytes) and
// checks that Run reproduces referenceRun on it bit for bit.
func FuzzClusterRun(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 5, 1, 7, 3, 7, 7, 11, 2, 15, 31, 4, 60, 100, 40, 0, 2, 0, 1})
	f.Add([]byte{1, 2, 3, 7, 1, 3, 3, 19, 1, 8, 2, 30, 0, 63, 1, 1, 9, 9})
	f.Fuzz(func(t *testing.T, b []byte) {
		checkMatchesReference(t, configFromBytes(b))
	})
}
