package workload

import (
	"fmt"
	"time"

	"mccs/internal/collective"
	"mccs/internal/gpusim"
	"mccs/internal/mccsd"
	"mccs/internal/sim"
	"mccs/internal/spec"
	"mccs/internal/topo"
)

// issueCollective dispatches one trace collective onto the communicator:
// in place on the job's working buffer, except an AllGather, which
// gathers each rank's share of send into it.
func issueCollective(p *sim.Proc, comm *mccsd.Comm, ph Phase, send, buf *gpusim.Buffer) (*mccsd.OpHandle, error) {
	count := ph.Bytes / 4
	switch ph.Op {
	case collective.AllGather:
		return comm.AllGather(p, send, buf, count/int64(comm.Size()), nil)
	case collective.AllReduce:
		return comm.AllReduce(p, nil, buf, count, nil)
	case collective.ReduceScatter:
		return comm.ReduceScatter(p, nil, buf, count, nil)
	case collective.Broadcast:
		return comm.Broadcast(p, buf, count, 0, nil)
	case collective.Reduce:
		return comm.Reduce(p, buf, count, 0, nil)
	default:
		return nil, fmt.Errorf("workload: unsupported trace collective %v", ph.Op)
	}
}

// This file is the traffic generator (paper §6.1: "a traffic generator
// with profile traces ... implemented with Rust using the MCCS library"):
// it replays a Trace against the MCCS service as a multi-rank tenant and
// measures iteration times and the Fig. 2 breakdown. Every experiment's
// tenants run through it.

// RunConfig launches one training job.
type RunConfig struct {
	Dep *mccsd.Deployment
	App spec.AppID
	// Key is the rendezvous key (unique per communicator).
	Key        string
	GPUs       []topo.GPUID
	Trace      Trace
	Iterations int
	// Depth is how many iterations' overlapped collectives may be in
	// flight (nccl-tests' pipelining; 0 means 1): iteration i's are
	// joined at the end of iteration i+Depth-1, and iteration i ends at
	// the later of its phases' end and its collectives' completion.
	Depth int
	// StartAt optionally delays the job's start (dynamic arrivals).
	StartAt sim.Time
	// OnIteration, when non-nil, is invoked by rank 0 once an iteration
	// is joined, with its end and duration (timeline experiments consume
	// this instead of waiting for job completion).
	OnIteration func(iter int, end sim.Time, dur time.Duration)
	// OnReady, when non-nil, is invoked by every rank once its
	// communicator is established, before the first iteration; it may
	// block. The figure drivers gate the measured loops on it (all ranks
	// ready, the controller acts, go); the orchestrator triggers policy
	// recomputes from rank 0's call, the moment a new tenant shows up in
	// the management view.
	OnReady func(p *sim.Proc, rank int, id spec.CommID)
	// TeardownGate, when non-nil, makes every rank destroy its
	// communicator and free its buffers after the last iteration, so a
	// finished job disappears from the deployment view and leaves no
	// engine state behind (the lifecycle a real multi-tenant service
	// runs). It brackets the teardown: it is called before the destroy,
	// and the release function it returns after. The orchestrator's gate
	// keeps communicator teardown from interleaving with a
	// reconfiguration barrier (a destroyed runner can never process its
	// barrier message, which would wedge the recompute).
	TeardownGate func(p *sim.Proc) (release func())
}

// Breakdown is the Fig. 2 decomposition of an iteration: fractions of
// wall time spent in exposed compute, host-device copies, exposed
// (non-overlapped) communication and idle stalls. Fractions sum to ~1.
type Breakdown struct {
	Compute float64
	Memcpy  float64
	Comm    float64
	Idle    float64
}

// Result reports a completed job.
type Result struct {
	App       spec.AppID
	Started   sim.Time
	Finished  sim.Time
	IterTimes []time.Duration
	IterEnds  []sim.Time
	Breakdown Breakdown
	Err       error
}

// JCT returns the job completion time.
func (r *Result) JCT() time.Duration { return r.Finished.Sub(r.Started) }

// Launch spawns the job's rank processes and returns a future resolved at
// completion. Iteration metrics are taken at rank 0. A trace the datapath
// cannot run is refused before any service command.
func Launch(cfg RunConfig) *sim.Future[*Result] {
	fut := sim.NewFuture[*Result]()
	if err := cfg.Trace.Validate(len(cfg.GPUs)); err != nil {
		cfg.Dep.S.After(0, func() { fut.Set(cfg.Dep.S, &Result{App: cfg.App, Err: err}) })
		return fut
	}
	if cfg.Iterations <= 0 {
		cfg.Iterations = 1
	}
	if cfg.Depth <= 0 {
		cfg.Depth = 1
	}
	n := len(cfg.GPUs)
	res := &Result{App: cfg.App}
	done := sim.NewLatch(n)
	s := cfg.Dep.S

	// Closer resolves the future when every rank finishes.
	s.Go(fmt.Sprintf("job:%s:join", cfg.App), func(p *sim.Proc) {
		done.Wait(p)
		res.Finished = p.Now()
		fut.Set(s, res)
	})

	for rank, gpu := range cfg.GPUs {
		rank, gpu := rank, gpu
		host := cfg.Dep.Cluster.HostOfGPU(gpu)
		s.Go(fmt.Sprintf("job:%s:r%d", cfg.App, rank), func(p *sim.Proc) {
			defer done.Done(s)
			if cfg.StartAt > 0 {
				p.SleepUntil(cfg.StartAt)
			}
			if rank == 0 {
				res.Started = p.Now()
			}
			if err := runRank(p, cfg, rank, gpu, host, res); err != nil && res.Err == nil {
				res.Err = err
			}
		})
	}
	return fut
}

func runRank(p *sim.Proc, cfg RunConfig, rank int, gpu topo.GPUID, host topo.HostID, res *Result) error {
	f := cfg.Dep.Service(host).Frontend(cfg.App)
	// One buffer sized for the largest collective of the trace, and an
	// AllGather send buffer for the largest per-rank share.
	var maxBytes, maxGather int64 = 4, 0
	for _, ph := range cfg.Trace.Phases {
		if ph.Kind != Collective {
			continue
		}
		maxBytes = max(maxBytes, ph.Bytes)
		if ph.Op == collective.AllGather {
			maxGather = max(maxGather, ph.Bytes/4/int64(len(cfg.GPUs))*4)
		}
	}
	var send, buf *gpusim.Buffer
	var err error
	if maxGather > 0 {
		if send, err = f.MemAlloc(p, gpu, maxGather, false); err != nil {
			return err
		}
	}
	if buf, err = f.MemAlloc(p, gpu, maxBytes, false); err != nil {
		return err
	}
	comm, err := f.CommInitRank(p, cfg.Key, len(cfg.GPUs), rank, gpu)
	if err != nil {
		return err
	}
	if cfg.OnReady != nil {
		cfg.OnReady(p, rank, comm.ID())
	}

	var busyCompute, busyMemcpy, busyIdle, busyComm time.Duration
	// The last Depth iterations, whose overlapped collectives may still
	// be in flight: one slot each, reused from iteration to iteration.
	window := make([]struct {
		start, end sim.Time // the iteration's start and its phases' end
		ops        []*mccsd.OpHandle
	}, cfg.Depth)
	// join waits for iteration it's overlapped collectives; only the
	// wait beyond the compute tail is exposed communication.
	join := func(it int) {
		w := &window[it%cfg.Depth]
		t, end := p.Now(), w.end
		for _, h := range w.ops {
			end = max(end, h.Wait(p).Done)
		}
		busyComm += time.Duration(p.Now().Sub(t))
		if rank == 0 {
			d := time.Duration(end.Sub(w.start))
			res.IterTimes = append(res.IterTimes, d)
			res.IterEnds = append(res.IterEnds, end)
			if cfg.OnIteration != nil {
				cfg.OnIteration(it, end, d)
			}
		}
	}
	for it := 0; it < cfg.Iterations; it++ {
		w := &window[it%cfg.Depth]
		w.start, w.ops = p.Now(), w.ops[:0]
		for _, ph := range cfg.Trace.Phases {
			switch ph.Kind {
			case Compute:
				p.Sleep(ph.Duration)
				busyCompute += ph.Duration
			case Memcpy:
				p.Sleep(ph.Duration)
				busyMemcpy += ph.Duration
			case Idle:
				p.Sleep(ph.Duration)
				busyIdle += ph.Duration
			case Collective:
				h, err := issueCollective(p, comm, ph, send, buf)
				if err != nil {
					return err
				}
				if ph.Overlap {
					w.ops = append(w.ops, h)
				} else {
					t := p.Now()
					h.Wait(p)
					busyComm += time.Duration(p.Now().Sub(t))
				}
			}
		}
		w.end = p.Now()
		if it >= cfg.Depth-1 {
			join(it - cfg.Depth + 1)
		}
	}
	for it := max(cfg.Iterations-cfg.Depth+1, 0); it < cfg.Iterations; it++ {
		join(it)
	}
	if rank == 0 {
		total := busyCompute + busyMemcpy + busyIdle + busyComm
		if total > 0 {
			res.Breakdown = Breakdown{
				Compute: float64(busyCompute) / float64(total),
				Memcpy:  float64(busyMemcpy) / float64(total),
				Idle:    float64(busyIdle) / float64(total),
				Comm:    float64(busyComm) / float64(total),
			}
		}
	}
	if cfg.TeardownGate == nil {
		return nil
	}
	defer cfg.TeardownGate(p)()
	err = comm.Destroy(p)
	for _, b := range []*gpusim.Buffer{buf, send} {
		if err == nil && b != nil {
			err = f.MemFree(p, b)
		}
	}
	return err
}
