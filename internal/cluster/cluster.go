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
// that edge's share of the traffic. The rings and the decisions over them
// are the policy code the MCCS service runs: spec.RingStrategy lays out a
// job's channels, policy.AppendFlows extracts its inter-host connections
// (the run's one list of them, which every iteration sends from) and FFA
// routes them through a policy.Workspace kept for the whole run.
package cluster

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"time"

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
	Jobs []JobResult
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

// job is the in-flight state of one placed job.
type job struct {
	id   int
	gpus []topo.GPUID
	info spec.CommInfo // pseudo comm info for the shared policy code
	// The job's connections are sim11.flows[flowOff : flowOff+nflow].
	flowOff, nflow int

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
	// queue holds the IDs of the admitted jobs still waiting for GPUs, in
	// arrival order; each one's size is in its result.
	queue []int
	// active holds the running jobs in ID order: jobs are admitted FIFO in
	// arrival order, which is ID order, so a started job is appended.
	active  []*job
	results []JobResult
	// flows holds the running jobs' connections back to back, in active
	// order: per job, one per directed inter-host ring edge, as
	// policy.AppendFlows extracts them, each with its route (Flow.Path)
	// chosen: by ECMP at the job's start under RandomRing and OR, by FFA
	// (in ffa, the workspace every decision runs in) on every join and
	// exit under OR+FFA.
	flows []policy.Flow
	ffa   policy.Workspace
	// perHost[h] counts a job's GPUs on host h (ringCount's scratch, reused
	// from job to job; zero between calls).
	perHost []int
	done    *sim.Latch
	// arrived counts the jobs the arrival process has admitted so far.
	arrived int
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
	return &RunResult{Jobs: m.results}, nil
}

// arrive is the arrival process. Each dispatch admits the next job, with a
// size drawn now, then draws the gap to the one after it and sleeps: the
// arrival stream draws size, gap, size, gap, ... and ends with a size.
func (m *sim11) arrive(p *sim.Proc) bool {
	i := m.arrived
	m.arrived++
	size := m.cfg.JobSizes[m.arrivalRng.Intn(len(m.cfg.JobSizes))]
	m.queue = append(m.queue, i)
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
		id := m.queue[0]
		gpus, ok := m.place(m.results[id].Size)
		if !ok {
			return // head-of-line blocks; capacity frees on job exit
		}
		m.queue = m.queue[1:]
		m.start(id, gpus)
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

// start spawns placed job id: it lays out the job's rings, appends its
// connections to m.flows and routes them.
func (m *sim11) start(id int, gpus []topo.GPUID) {
	m.take(gpus)
	// The job's process and its application share one name.
	name := "job" + strconv.Itoa(id)
	j := &m.jobs[id]
	j.id, j.gpus, j.s = id, gpus, m.s
	j.info = spec.CommInfo{ID: spec.CommID(id + 1), App: spec.AppID(name), Ranks: make([]spec.RankInfo, len(gpus))}
	for rank, g := range gpus {
		j.info.Ranks[rank] = spec.RankInfo{
			Rank: rank, GPU: g,
			Host: m.cluster.HostOfGPU(g),
			NIC:  m.cluster.NICOfGPU(g),
		}
	}
	var base []int
	switch m.cfg.Strategy {
	case StratRandomRing:
		// The paper's baseline reading: a fully random rank ring.
		base = m.ringRng.Perm(len(gpus))
	default:
		base = policy.LocalityRing(m.cluster, j.info.Ranks)
	}
	j.info.Strategy = spec.RingStrategy(base, j.info.Ranks, m.ringCount(gpus), false)

	m.active = append(m.active, j)
	m.results[id].Started = m.s.Now()
	j.flowOff = len(m.flows)
	m.flows = policy.AppendFlows(m.flows, m.cluster, &j.info)
	j.nflow = len(m.flows) - j.flowOff
	if m.cfg.Strategy == StratORFFA {
		// FFA reruns over all active jobs on every join and exit, as the
		// paper describes. Flows in flight keep the route they started on.
		m.ffa.Assign(m.cluster, m.flows)
	} else {
		// ECMP: the path the fabric would hash each connection's label to,
		// picked once here instead of at every send.
		for i := j.flowOff; i < len(m.flows); i++ {
			f := &m.flows[i]
			if paths := m.cluster.PathsBetweenNICs(f.SrcNIC, f.DstNIC); len(paths) > 0 {
				o := m.sendOpts(j, f)
				f.Path = netsim.ECMPIndex(o.Src, o.Dst, o.Label, len(paths))
			}
		}
	}
	m.s.GoStep(name, func(p *sim.Proc) bool { return m.stepJob(p, j) })
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

// sendIteration starts one AllReduce iteration's flows: one per connection
// of the job, each on its chosen route. All of them start at one virtual
// instant; the fabric coalesces the whole batch into a single max-min
// recompute at the end of the instant (see DESIGN.md §10). The flows are
// the fabric's own (Send): each reports to j.OnEvent and is recycled.
func (m *sim11) sendIteration(j *job) {
	for i := j.flowOff; i < j.flowOff+j.nflow; i++ {
		o := m.sendOpts(j, &m.flows[i])
		j.inflight++
		m.fabric.Send(&o)
	}
}

// sendOpts returns the options of connection f of job j: its NICs, its
// share of an iteration's bytes, its route (nil for a connection without
// paths: the fabric reports the missing path) and a label that names it
// for ECMP.
func (m *sim11) sendOpts(j *job, f *policy.Flow) netsim.FlowOpts {
	// Bytes per directed inter-host ring edge per iteration: each ring
	// carries 1/nrings of the model, and ring AllReduce moves
	// 2(n-1)/n of a ring's bytes over every edge.
	n, nrings := len(j.gpus), len(j.info.Strategy.Channels)
	perEdge := float64(m.cfg.ModelBytes) / float64(nrings) * 2 * float64(n-1) / float64(n)
	return netsim.FlowOpts{
		Src: m.cluster.NICNode(f.SrcNIC), Dst: m.cluster.NICNode(f.DstNIC),
		Bytes:  perEdge,
		Route:  f.Route(),
		Label:  flowLabel(uint64(m.cfg.Seed), j.id, f.Key.Channel, f.Key.FromRank, f.Key.ToRank),
		OnDone: j,
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
	// The connections after j's move down into its place.
	m.flows = slices.Delete(m.flows, j.flowOff, j.flowOff+j.nflow)
	for _, k := range m.active[i:] {
		k.flowOff -= j.nflow
	}
	if m.cfg.Strategy == StratORFFA {
		m.ffa.Assign(m.cluster, m.flows)
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
