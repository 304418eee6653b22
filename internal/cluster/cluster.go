// Package cluster implements the paper's large-scale simulation (§6.5):
// 768 GPUs in a 2:1-oversubscribed spine-leaf fabric, 50 data-parallel
// ResNet-50 jobs arriving as a Poisson process, placed randomly or
// compactly, running ring AllReduce under three strategies — random ring
// order, locality-optimal rings (OR), and OR with fair flow assignment
// (OR+FFA).
//
// Like the paper's own evaluation, this is a flow-level simulation (the
// paper: "Our flow-level simulator assumes per-flow fairness"): each
// AllReduce iteration becomes one flow per inter-host ring edge carrying
// that edge's share of the traffic. Route decisions reuse exactly the policy
// code the MCCS service runs (policy.LocalityRing, and FFA through a
// policy.Workspace kept for the whole run).
package cluster

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"time"

	"mccs/internal/metrics"
	"mccs/internal/netsim"
	"mccs/internal/policy"
	"mccs/internal/sim"
	"mccs/internal/spec"
	"mccs/internal/topo"
)

// Placement selects the job placement policy.
type Placement int

const (
	// PlacementRandom scatters a job over random free GPUs.
	PlacementRandom Placement = iota
	// PlacementCompact packs a job into as few racks as possible.
	PlacementCompact
)

func (p Placement) String() string {
	if p == PlacementCompact {
		return "compact"
	}
	return "random"
}

// Strategy selects the collective configuration.
type Strategy int

const (
	// StratRandomRing orders each ring randomly (the NCCL-with-
	// arbitrary-ranks baseline) and routes by ECMP.
	StratRandomRing Strategy = iota
	// StratOR uses locality-optimal rings, still routed by ECMP.
	StratOR
	// StratORFFA adds fair flow assignment, re-run whenever a job joins
	// or leaves (the paper: "rescheduling occurs only when a job joins
	// or exits").
	StratORFFA
)

var stratNames = [...]string{"RandomRing", "OR", "OR+FFA"}

func (s Strategy) String() string {
	if int(s) < len(stratNames) {
		return stratNames[s]
	}
	return "Unknown"
}

// Config parameterizes a run.
type Config struct {
	Topo        topo.ClosConfig
	NumJobs     int
	JobSizes    []int
	MeanArrival time.Duration
	Iterations  int
	ModelBytes  int64
	ComputeTime time.Duration
	Placement   Placement
	Strategy    Strategy
	Seed        int64
}

// DefaultConfig reproduces the paper's §6.5 parameters.
func DefaultConfig() Config {
	return Config{
		Topo:        topo.LargeScaleConfig(),
		NumJobs:     50,
		JobSizes:    []int{16, 32},
		MeanArrival: 200 * time.Millisecond,
		Iterations:  10,
		ModelBytes:  100 << 20,
		ComputeTime: 100 * time.Millisecond,
		Placement:   PlacementRandom,
		Strategy:    StratRandomRing,
		Seed:        1,
	}
}

// JobResult reports one job.
type JobResult struct {
	ID       int
	Size     int
	Arrived  sim.Time
	Started  sim.Time
	Finished sim.Time
	// ARTimes are the per-iteration AllReduce (communication phase)
	// completion times.
	ARTimes []time.Duration
}

// MeanAR returns the job's mean AllReduce completion time.
func (j *JobResult) MeanAR() time.Duration {
	if len(j.ARTimes) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range j.ARTimes {
		sum += d
	}
	return sum / time.Duration(len(j.ARTimes))
}

// RunResult is a full simulation outcome.
type RunResult struct {
	Config Config
	Jobs   []JobResult
}

// MeanARs returns every job's mean AllReduce time in job-ID order
// (seconds), for speedup comparisons across strategies on the same seed.
func (r *RunResult) MeanARs() []float64 {
	out := make([]float64, len(r.Jobs))
	for i, j := range r.Jobs {
		out[i] = j.MeanAR().Seconds()
	}
	return out
}

// Speedups divides a baseline's per-job mean AR times by this run's
// (elementwise); both runs must use the same seed so job i is identical.
func Speedups(baseline, improved *RunResult) ([]float64, error) {
	if len(baseline.Jobs) != len(improved.Jobs) {
		return nil, fmt.Errorf("cluster: job count mismatch %d vs %d", len(baseline.Jobs), len(improved.Jobs))
	}
	base := baseline.MeanARs()
	imp := improved.MeanARs()
	out := make([]float64, len(base))
	for i := range base {
		if imp[i] <= 0 {
			return nil, fmt.Errorf("cluster: job %d has zero AR time", i)
		}
		out[i] = base[i] / imp[i]
	}
	return out, nil
}

// SpeedupCDF returns the Fig. 11 CDF of per-job speedups.
func SpeedupCDF(baseline, improved *RunResult) ([]metrics.CDFPoint, float64, error) {
	sp, err := Speedups(baseline, improved)
	if err != nil {
		return nil, 0, err
	}
	return metrics.CDF(sp), metrics.Mean(sp), nil
}

// job is the in-flight state of one placed job.
type job struct {
	id    int
	size  int
	gpus  []topo.GPUID
	rings [][]int       // per-ring order (rank space)
	info  spec.CommInfo // pseudo comm info for the shared policy code
	// The job's send list is sim11.sends[sendOff : sendOff+nsend].
	sendOff, nsend int

	// The job runs as a step function (stepJob): phase is where it resumes,
	// iter counts the iterations finished and commStart is when the current
	// one's AllReduce began.
	phase     jobPhase
	iter      int
	commStart sim.Time

	// inflight counts the unfinished flows of the iteration in progress;
	// the completion that brings it to zero wakes the job's process.
	s        *sim.Scheduler
	inflight int
	iterDone sim.WaitQueue
}

// jobPhase is where a job's step function resumes.
type jobPhase uint8

const (
	// jobCompute starts the next iteration with its compute phase, or
	// retires the job once every iteration is done.
	jobCompute jobPhase = iota
	// jobComm starts the iteration's flows.
	jobComm
	// jobRecord records the AllReduce time once the last flow is done.
	jobRecord
)

// OnEvent is the completion callback of every flow the job starts.
func (j *job) OnEvent(uint64) {
	if j.inflight--; j.inflight == 0 {
		j.iterDone.WakeOne(j.s)
	}
}

type sim11 struct {
	cfg     Config
	s       *sim.Scheduler
	cluster *topo.Cluster
	fabric  *netsim.Fabric
	// Three independent streams keep the workload (arrivals, sizes)
	// identical across strategies even though strategies consume
	// different amounts of randomness for rings and placement order.
	arrivalRng *rand.Rand
	placeRng   *rand.Rand
	ringRng    *rand.Rand

	// jobs holds every job's record, indexed by ID.
	jobs []job
	free []topo.GPUID // unallocated GPUs, ascending
	// shuffled is random placement's scratch copy of free, reused across
	// placements.
	shuffled []topo.GPUID
	queue    []pendingJob
	// active holds the running jobs in ID order: jobs are admitted FIFO in
	// arrival order, which is ID order, so a started job is appended.
	active  []*job
	results []JobResult
	// sends holds the running jobs' send lists back to back, in active
	// order: per job, one resolved flow per directed inter-host ring edge,
	// ring by ring, in the order policy.AppendFlows extracts the job's
	// connections. Under OR+FFA, flows holds those connections, index for
	// index, and ffa is the workspace every decision over them runs in.
	sends []netsim.FlowOpts
	flows []policy.Flow
	ffa   policy.Workspace
	// Scratch reused from job to job: perHost[h] counts a job's GPUs on
	// host h (ringCount; zero between calls) and hosts is a job's host per
	// rank (start).
	perHost []int
	hosts   []topo.HostID
	done    *sim.Latch
	// arrived counts the jobs the arrival process has admitted so far.
	arrived int
}

type pendingJob struct {
	id      int
	size    int
	arrived sim.Time
}

// Run executes the simulation and returns per-job results (sorted by job
// ID).
func Run(cfg Config) (*RunResult, error) { return run(cfg, sim.New()) }

// run is Run on a given scheduler, so a test can observe its events.
func run(cfg Config, s *sim.Scheduler) (*RunResult, error) {
	m, err := newSim(cfg, s)
	if err != nil {
		return nil, err
	}
	return m.simulate()
}

// newSim validates cfg and builds a run's state on s.
func newSim(cfg Config, s *sim.Scheduler) (*sim11, error) {
	if cfg.NumJobs <= 0 || cfg.Iterations <= 0 || cfg.ModelBytes <= 0 || len(cfg.JobSizes) == 0 {
		return nil, fmt.Errorf("cluster: bad config %+v", cfg)
	}
	switch {
	case cfg.Strategy < StratRandomRing || cfg.Strategy > StratORFFA:
		return nil, fmt.Errorf("cluster: unknown strategy %d", int(cfg.Strategy))
	case cfg.Placement < PlacementRandom || cfg.Placement > PlacementCompact:
		return nil, fmt.Errorf("cluster: unknown placement %d", int(cfg.Placement))
	case cfg.MeanArrival < 0:
		return nil, fmt.Errorf("cluster: negative mean arrival gap %v", cfg.MeanArrival)
	case cfg.ComputeTime < 0:
		return nil, fmt.Errorf("cluster: negative compute time %v", cfg.ComputeTime)
	}
	cl, err := topo.BuildClos(cfg.Topo)
	if err != nil {
		return nil, err
	}
	for _, n := range cfg.JobSizes {
		if n < 1 || n > len(cl.GPUs) {
			return nil, fmt.Errorf("cluster: job size %d outside [1, %d] GPUs", n, len(cl.GPUs))
		}
	}
	m := &sim11{
		cfg: cfg, s: s, cluster: cl,
		fabric:     netsim.NewFabric(s, cl.Net),
		arrivalRng: rand.New(rand.NewSource(cfg.Seed)),
		placeRng:   rand.New(rand.NewSource(cfg.Seed + 1)),
		ringRng:    rand.New(rand.NewSource(cfg.Seed + 2)),
		jobs:       make([]job, cfg.NumJobs),
		free:       make([]topo.GPUID, len(cl.GPUs)),
		perHost:    make([]int, len(cl.Hosts)),
		results:    make([]JobResult, cfg.NumJobs),
		done:       sim.NewLatch(cfg.NumJobs),
	}
	for g := range m.free {
		m.free[g] = topo.GPUID(g)
	}
	// Every job records Iterations AllReduce times: one array holds them
	// all, each job's a capped window of it.
	arTimes := make([]time.Duration, 0, cfg.NumJobs*cfg.Iterations)
	for i := range m.results {
		m.results[i].ARTimes = arTimes[i*cfg.Iterations : i*cfg.Iterations : (i+1)*cfg.Iterations]
	}
	return m, nil
}

// simulate runs the simulation to its end.
func (m *sim11) simulate() (*RunResult, error) {
	s := m.s
	// Every process is a step function (sim.Scheduler.GoStep): the run
	// starts no goroutine.
	s.GoStep("arrivals", m.arrive)
	s.GoStep("join", m.done.Park)
	if err := s.Run(); err != nil {
		return nil, err
	}
	return &RunResult{Config: m.cfg, Jobs: m.results}, nil
}

// arrive is the arrival process. Each dispatch admits the next job, with a
// size drawn now, then draws the gap to the one after it and sleeps: the
// arrival stream draws size, gap, size, gap, ... and ends with a size.
func (m *sim11) arrive(p *sim.Proc) bool {
	i := m.arrived
	m.arrived++
	size := m.cfg.JobSizes[m.arrivalRng.Intn(len(m.cfg.JobSizes))]
	m.queue = append(m.queue, pendingJob{id: i, size: size, arrived: p.Now()})
	r := &m.results[i]
	r.ID, r.Size, r.Arrived = i, size, p.Now()
	m.tryPlace()
	if m.arrived == m.cfg.NumJobs {
		return true
	}
	p.ParkSleep(time.Duration(m.arrivalRng.ExpFloat64() * float64(m.cfg.MeanArrival)))
	return false
}

// tryPlace admits queued jobs FIFO while capacity lasts.
func (m *sim11) tryPlace() {
	for len(m.queue) > 0 {
		next := m.queue[0]
		gpus, ok := m.place(next.size)
		if !ok {
			return // head-of-line blocks; capacity frees on job exit
		}
		m.queue = m.queue[1:]
		m.start(&next, gpus)
	}
}

// place allocates GPUs under the configured placement policy.
func (m *sim11) place(n int) ([]topo.GPUID, bool) {
	if len(m.free) < n {
		return nil, false
	}
	var chosen []topo.GPUID
	switch m.cfg.Placement {
	case PlacementCompact:
		// Fill rack by rack, racks with the most free GPUs first (ties
		// by rack ID), hosts in order within a rack.
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
	default: // PlacementRandom: the first n of a shuffle of the free GPUs
		free := append(m.shuffled[:0], m.free...)
		m.shuffled = free
		m.placeRng.Shuffle(len(free), func(i, j int) { free[i], free[j] = free[j], free[i] })
		return slices.Clone(free[:n]), true
	}
}

// take removes placed GPUs from the free list.
func (m *sim11) take(gpus []topo.GPUID) {
	for _, g := range gpus {
		i, _ := slices.BinarySearch(m.free, g)
		m.free = slices.Delete(m.free, i, i+1)
	}
}

// ringCount returns the rings per job: one per NIC the job can drive per
// host, bounded by the fabric's path diversity.
func (m *sim11) ringCount(gpus []topo.GPUID) int {
	for _, g := range gpus {
		m.perHost[m.cluster.HostOfGPU(g)]++
	}
	minPerHost := len(gpus)
	for _, g := range gpus {
		// The first of a host's GPUs reads its count and clears it.
		if h := m.cluster.HostOfGPU(g); m.perHost[h] > 0 {
			minPerHost = min(minPerHost, m.perHost[h])
			m.perHost[h] = 0
		}
	}
	return max(min(m.cfg.Topo.Spines, minPerHost), 1)
}

// start spawns a placed job.
func (m *sim11) start(pj *pendingJob, gpus []topo.GPUID) {
	m.take(gpus)
	// The job's process and its application share one name.
	name := "job" + strconv.Itoa(pj.id)
	j := &m.jobs[pj.id]
	j.id, j.size, j.gpus, j.s = pj.id, pj.size, gpus, m.s
	j.info = spec.CommInfo{ID: spec.CommID(pj.id + 1), App: spec.AppID(name), Ranks: make([]spec.RankInfo, len(gpus))}
	for rank, g := range gpus {
		j.info.Ranks[rank] = spec.RankInfo{
			Rank: rank, GPU: g,
			Host: m.cluster.HostOfGPU(g),
			NIC:  m.cluster.NICOfGPU(g),
		}
	}
	nrings := m.ringCount(gpus)
	var base []int
	switch m.cfg.Strategy {
	case StratRandomRing:
		// The paper's baseline reading: a fully random rank ring.
		base = m.ringRng.Perm(len(gpus))
	default:
		base = policy.LocalityRing(m.cluster, j.info.Ranks)
	}
	m.hosts = m.hosts[:0]
	for _, ri := range j.info.Ranks {
		m.hosts = append(m.hosts, ri.Host)
	}
	j.rings = spec.StripeChannelOrders(base, m.hosts, nrings)
	j.info.Strategy.Channels = make([]spec.ChannelSpec, len(j.rings))
	for i, order := range j.rings {
		j.info.Strategy.Channels[i] = spec.ChannelSpec{Order: order, Route: spec.RouteECMP}
	}

	m.active = append(m.active, j)
	m.results[j.id].Started = m.s.Now()
	m.appendSends(j)
	if m.cfg.Strategy == StratORFFA {
		m.flows = policy.AppendFlows(m.flows, m.cluster, &j.info)
		m.reassignRoutes()
	}
	m.s.GoStep(name, func(p *sim.Proc) bool { return m.stepJob(p, j) })
}

// appendSends appends j's send list to m.sends: one flow per directed
// inter-host ring edge, carrying the edge's share of an iteration's bytes
// on the path ECMP hashes its label to — the very slice Fabric.start would
// pick for the same options without a route, picked once here instead of
// at every send. Under OR+FFA, reassignRoutes replaces the route.
func (m *sim11) appendSends(j *job) {
	n := len(j.gpus)
	// Bytes per directed inter-host ring edge per iteration: each ring
	// carries 1/nrings of the model, and ring AllReduce moves
	// 2(n-1)/n of a ring's bytes over every edge.
	perEdge := float64(m.cfg.ModelBytes) / float64(len(j.rings)) * 2 * float64(n-1) / float64(n)
	j.sendOff = len(m.sends)
	for ri, order := range j.rings {
		for pos := 0; pos < n; pos++ {
			from := j.info.Ranks[order[pos]]
			to := j.info.Ranks[order[(pos+1)%n]]
			if from.Host == to.Host {
				continue
			}
			src, dst := m.cluster.NICNode(from.NIC), m.cluster.NICNode(to.NIC)
			label := flowLabel(uint64(m.cfg.Seed), j.id, ri, from.Rank, to.Rank)
			var route []netsim.LinkID // none: the fabric reports the missing path
			if paths := m.cluster.PathsBetweenNICs(from.NIC, to.NIC); len(paths) > 0 {
				route = paths[netsim.ECMPIndex(src, dst, label, len(paths))]
			}
			m.sends = append(m.sends, netsim.FlowOpts{
				Src: src, Dst: dst, Bytes: perEdge, Route: route, Label: label, OnDone: j,
			})
		}
	}
	j.nsend = len(m.sends) - j.sendOff
}

// reassignRoutes recomputes FFA over all active jobs (invoked on every
// join and exit, as the paper describes) and pins each send to the path
// its connection was assigned. Flows in flight keep the route they started
// on.
func (m *sim11) reassignRoutes() {
	m.ffa.Assign(m.cluster, m.flows)
	for i := range m.flows {
		m.sends[i].Route = m.flows[i].Route()
	}
}

// stepJob is a job's process: it computes, starts the iteration's flows and
// parks until the last one is done, Iterations times, then releases the
// job's GPUs. It parks in the compute phase (ParkSleep) and on the
// iteration's flows (iterDone) and resumes at j.phase.
func (m *sim11) stepJob(p *sim.Proc, j *job) bool {
	for {
		switch j.phase {
		case jobCompute:
			if j.iter == m.cfg.Iterations {
				m.finish(j)
				return true
			}
			j.phase = jobComm
			if m.cfg.ComputeTime > 0 {
				p.ParkSleep(m.cfg.ComputeTime)
				return false
			}
		case jobComm:
			j.commStart = p.Now()
			m.sendIteration(j)
			j.phase = jobRecord
			if j.inflight > 0 {
				j.iterDone.Park(p)
				return false
			}
		case jobRecord:
			m.results[j.id].ARTimes = append(m.results[j.id].ARTimes, time.Duration(p.Now().Sub(j.commStart)))
			j.iter++
			j.phase = jobCompute
		}
	}
}

// sendIteration starts one AllReduce iteration's flows: the job's send
// list, one per directed inter-host ring edge. All of them start at one
// virtual instant; the fabric coalesces the whole batch into a single
// max-min recompute at the end of the instant (see DESIGN.md §10). The
// flows are the fabric's own (Send): each reports to j.OnEvent and is
// recycled.
func (m *sim11) sendIteration(j *job) {
	for i := j.sendOff; i < j.sendOff+j.nsend; i++ {
		j.inflight++
		m.fabric.Send(&m.sends[i])
	}
}

// finish retires a job that has run every iteration: it releases the GPUs,
// re-runs FFA when that is the strategy and admits queued jobs.
func (m *sim11) finish(j *job) {
	m.results[j.id].Finished = m.s.Now()
	for _, g := range j.gpus {
		i, _ := slices.BinarySearch(m.free, g)
		m.free = slices.Insert(m.free, i, g)
	}
	i := slices.Index(m.active, j)
	m.active = slices.Delete(m.active, i, i+1)
	// The send lists (and flows) after j's move down into its place.
	end := j.sendOff + j.nsend
	m.sends = slices.Delete(m.sends, j.sendOff, end)
	for _, k := range m.active[i:] {
		k.sendOff -= j.nsend
	}
	if m.cfg.Strategy == StratORFFA {
		m.flows = slices.Delete(m.flows, j.sendOff, end)
		m.reassignRoutes()
	}
	m.tryPlace()
	m.done.Done(m.s)
}

func flowLabel(seed uint64, jobID, ring, from, to int) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range []uint64{seed, uint64(jobID), uint64(ring), uint64(from), uint64(to)} {
		h = (h ^ v) * 1099511628211
	}
	return h
}
