package policy

import (
	"fmt"
	"time"

	"mccs/internal/collective"
	"mccs/internal/netsim"
	"mccs/internal/proxy"
	"mccs/internal/sim"
	"mccs/internal/spec"
	"mccs/internal/telemetry"
	"mccs/internal/trace"
	"mccs/internal/transport"
	"mccs/internal/tuner"
)

// AutotuneOptions parameterizes one autotuning pass for a communicator.
type AutotuneOptions struct {
	// Op and Bytes describe the workload being tuned for: the dominant
	// collective and its output size.
	Op    collective.Op
	Bytes int64
	// MaxChannels caps the candidate channel counts; 0 applies the same
	// path-diversity / ranks-per-host cap as OptimalRingStrategy.
	MaxChannels int
	// NoTree and NoHD shrink the candidate space (mostly for tests and
	// ablations).
	NoTree bool
	NoHD   bool
}

// TuneModel returns the tuner's cost model, built on the first call from
// the deployment's actual timing configuration and then kept: it reads
// external link load live from the fabric, so one model serves every
// pass. This is exactly the provider-only knowledge the paper argues for:
// tenants can see none of these numbers.
func (c *Controller) TuneModel() *tuner.Model {
	if c.model != nil {
		return c.model
	}
	cfg := c.dep.Config()
	m := tuner.DefaultModel(c.dep.Cluster)
	m.Alpha = transport.NetLatency + 2*time.Microsecond
	m.Fixed = cfg.CmdLatency + cfg.CompletionLatency + proxy.KernelLaunch
	m.IntraBps = cfg.Transport.IntraBps
	fb := c.dep.Fabric
	m.ExtLoad = func(l netsim.LinkID) float64 { return fb.ExternalRate(l) }
	c.model = m
	return m
}

// TuneSpace enumerates the candidate space for a communicator: the
// locality ring, its reversal (the Fig. 7 congestion dodge) and the
// tenant's rank order, crossed with channel counts up to the fabric's
// path diversity, ECMP vs pinned routes, and the halving-doubling and
// tree algorithms.
func (c *Controller) TuneSpace(info *spec.CommInfo, opts AutotuneOptions) tuner.Space {
	locality := LocalityRing(c.dep.Cluster, info.Ranks)
	reversed := make([]int, len(locality))
	rankOrder := make([]int, len(locality))
	for i := range locality {
		reversed[i] = locality[len(locality)-1-i]
		rankOrder[i] = i
	}
	return tuner.Space{
		Orders: []tuner.Order{
			{Name: "locality", Ranks: locality},
			{Name: "locality-rev", Ranks: reversed},
			{Name: "rank", Ranks: rankOrder},
		},
		MaxChannels: channelCount(c.dep.Cluster, info, opts.MaxChannels),
		Pins:        []bool{false, true},
		HD:          !opts.NoHD,
		Tree:        !opts.NoTree,
	}
}

// Autotune runs the tuner for one communicator: score every candidate
// under the live cost model, install the winner through the
// reconfiguration protocol, and record the whole decision in telemetry
// and the flight recorder (one KindTuner span per candidate plus one for
// the install). It blocks p until every rank has switched; a plan runs
// StartAutotune and its finish as two rows instead.
func (c *Controller) Autotune(p *sim.Proc, id spec.CommID, opts AutotuneOptions) error {
	installed, finish, err := c.StartAutotune(id, opts)
	if err != nil {
		return err
	}
	installed.Wait(p)
	finish()
	return nil
}

// StartAutotune is Autotune up to the install: it searches, records the
// ranked candidates and starts installing the winner. The returned latch
// opens when every rank has switched; call finish then, to count the
// install and record its span.
func (c *Controller) StartAutotune(id spec.CommID, opts AutotuneOptions) (installed *sim.Latch, finish func(), err error) {
	info, err := c.commInfo(id)
	if err != nil {
		return nil, nil, err
	}
	if opts.Bytes <= 0 {
		return nil, nil, fmt.Errorf("policy: autotune needs a positive byte size")
	}
	model := c.TuneModel()
	cands := tuner.Candidates(info, c.TuneSpace(info, opts), opts.Bytes)
	d, err := model.Search(info, cands, opts.Op, opts.Bytes)
	if err != nil {
		return nil, nil, err
	}

	reg := telemetry.Of(c.dep.S)
	tenant := telemetry.L("tenant", string(info.App))
	reg.Counter("mccs_tuner_searches_total", "searches", tenant).Inc()
	reg.Counter("mccs_tuner_candidates_total", "candidates", tenant).Add(int64(len(d.Scored)))

	rec := trace.Of(c.dep.S)
	now := c.dep.S.Now()
	for i, sc := range d.Scored {
		rec.Emit(trace.Span{
			Kind: trace.KindTuner, Op: int32(opts.Op),
			Start: now, End: now,
			Comm: int32(id), Rank: -1, Peer: -1,
			Channel: int32(i), Step: -1,
			Flow: int64(sc.Predicted), Bytes: opts.Bytes,
			Src: -1, Dst: -1,
			Label: sc.Name,
		})
	}

	win := d.Winner()
	reg.Gauge("mccs_tuner_predicted_seconds", "s", tenant).Set(win.Predicted.Seconds())
	c.setStrategyInfo(reg, info.App, win.Name)
	latch, err := c.dep.Reconfigure(id, win.Strategy, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("policy: installing %q: %w", win.Name, err)
	}
	return latch, func() {
		reg.Counter("mccs_tuner_installs_total", "installs", tenant).Inc()
		rec.Emit(trace.Span{
			Kind: trace.KindTuner, Op: int32(opts.Op),
			Start: now, End: c.dep.S.Now(),
			Comm: int32(id), Rank: -1, Peer: -1,
			Channel: -1, Step: -1,
			Flow: int64(win.Predicted), Bytes: opts.Bytes,
			Src: -1, Dst: -1,
			Label: win.Name,
		})
	}, nil
}

// ObserveAchieved reads the most recent completed collective of the
// communicator from the service's collective history and records its
// measured duration next to the tuner's prediction, closing the predicted-
// vs-achieved loop in telemetry. It returns the achieved duration.
func (c *Controller) ObserveAchieved(id spec.CommID, rank int) (time.Duration, error) {
	info, err := c.commInfo(id)
	if err != nil {
		return 0, err
	}
	hist, err := c.dep.CommTrace(id, rank)
	if err != nil {
		return 0, err
	}
	if len(hist) == 0 {
		return 0, fmt.Errorf("policy: no completed ops for comm %d rank %d", id, rank)
	}
	achieved := hist[len(hist)-1].Elapsed()
	telemetry.Of(c.dep.S).
		Gauge("mccs_tuner_achieved_seconds", "s", telemetry.L("tenant", string(info.App))).
		Set(achieved.Seconds())
	return achieved, nil
}

// setStrategyInfo maintains the info-pattern gauge
// mccs_tuner_strategy_info{tenant,strategy}: the current choice is 1,
// superseded choices drop to 0, so dashboards (mccs top) can show the
// winning strategy by name.
func (c *Controller) setStrategyInfo(reg *telemetry.Registry, app spec.AppID, name string) {
	if reg == nil {
		return
	}
	if c.stratInfo == nil {
		c.stratInfo = make(map[spec.AppID]*telemetry.Gauge)
	}
	if prev := c.stratInfo[app]; prev != nil {
		prev.Set(0)
	}
	g := reg.Gauge("mccs_tuner_strategy_info", "info",
		telemetry.L("tenant", string(app)), telemetry.L("strategy", name))
	g.Set(1)
	c.stratInfo[app] = g
}

func (c *Controller) commInfo(id spec.CommID) (*spec.CommInfo, error) {
	for _, ci := range c.dep.View() {
		if ci.ID == id {
			ci := ci
			return &ci, nil
		}
	}
	return nil, fmt.Errorf("policy: unknown communicator %d", id)
}
