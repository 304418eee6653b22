package mccsd

import (
	"fmt"
	"time"

	"mccs/internal/netsim"
	"mccs/internal/proxy"
	"mccs/internal/sim"
	"mccs/internal/spec"
	"mccs/internal/transport"
)

// This file is the provider-side management plane (paper §4.3): the
// interface an external controller uses to observe communicators and to
// push scheduling / QoS decisions. Tenants have no access to it.

// View returns the management-plane description of every active
// communicator: ranks, placement, current strategy, priority. This is the
// information the controller's policies consume.
func (d *Deployment) View() []spec.CommInfo {
	var out []spec.CommInfo
	for id := spec.CommID(1); id <= d.nextCommID; id++ {
		c, ok := d.comms[id]
		if !ok {
			continue
		}
		info := c.Info
		info.Strategy = c.Strategy()
		info.Priority = d.priorities[info.App]
		out = append(out, info)
	}
	return out
}

// NumComms returns the number of active communicators — len(View()) for
// the pollers that only count, without describing any of them.
func (d *Deployment) NumComms() int { return len(d.comms) }

// RoutesOver reports whether any communicator's current routes cross
// link l, without building the View (it allocates nothing).
func (d *Deployment) RoutesOver(l netsim.LinkID) bool {
	for _, c := range d.comms {
		if c.RoutesOver(l) {
			return true
		}
	}
	return false
}

// Comm returns the internal communicator object: the policy controller
// acts on it, and the chaos harness reads its runners after a run.
func (d *Deployment) Comm(id spec.CommID) (*proxy.Comm, bool) {
	c, ok := d.comms[id]
	return c, ok
}

// SetPriority assigns a QoS priority to an application (consumed by PFA).
func (d *Deployment) SetPriority(app spec.AppID, prio int) {
	d.priorities[app] = prio
	for _, c := range d.comms {
		if c.Info.App == app {
			c.Info.Priority = prio
		}
	}
}

// Reconfigure delivers a new strategy to every rank of a communicator.
// delays optionally staggers per-rank delivery (modeling the arbitrary
// network/processing skew of Fig. 4); nil delivers immediately. The
// returned latch opens when every rank has switched.
func (d *Deployment) Reconfigure(id spec.CommID, strat spec.Strategy, delays []time.Duration) (*sim.Latch, error) {
	if d.cfg.Baseline {
		return nil, fmt.Errorf("mccsd: baseline library mode cannot reconfigure at runtime")
	}
	c, ok := d.comms[id]
	if !ok {
		return nil, fmt.Errorf("mccsd: unknown communicator %d", id)
	}
	if err := strat.Validate(c.Info.NumRanks()); err != nil {
		return nil, err
	}
	latch := sim.NewLatch(len(c.Runners))
	for i, r := range c.Runners {
		r := r
		req := &proxy.ReconfigRequest{Strategy: strat.Clone(), Done: latch}
		var delay time.Duration
		if i < len(delays) {
			delay = delays[i]
		}
		d.S.After(delay, func() { r.Enqueue(req) })
	}
	return latch, nil
}

// UpdateRoutes re-pins individual connections immediately (the FFA/PFA
// push path; no barrier needed since routes only affect future messages).
func (d *Deployment) UpdateRoutes(id spec.CommID, routes map[spec.ConnKey]int) error {
	if d.cfg.Baseline {
		return fmt.Errorf("mccsd: baseline library mode cannot repin routes")
	}
	c, ok := d.comms[id]
	if !ok {
		return fmt.Errorf("mccsd: unknown communicator %d", id)
	}
	return c.UpdateRoutes(routes)
}

// SetTrafficSchedule installs a TS time-window schedule for an application
// on every host (empty schedule = always allowed).
func (d *Deployment) SetTrafficSchedule(app spec.AppID, sched transport.Schedule) error {
	if err := sched.Validate(); err != nil {
		return err
	}
	for _, e := range d.engines {
		if err := e.Gate(app).SetSchedule(sched); err != nil {
			return err
		}
	}
	return nil
}

// ClearTrafficSchedule removes an application's TS schedule.
func (d *Deployment) ClearTrafficSchedule(app spec.AppID) {
	for _, e := range d.engines {
		e.Gate(app).Clear()
	}
}

// CheckQuiescent verifies that no communicator in the deployment has
// queued or in-flight work: every runner's command queue and execution
// pipeline are empty, no reconfiguration is stashed, and every message
// sent on any of its connections — every generation's and the
// point-to-point ones — was received. The chaos harness calls it after the
// scheduler drains — leftover work at that point means an operation was
// silently dropped or stranded, or a message lost or leaked.
func (d *Deployment) CheckQuiescent() error {
	for id := spec.CommID(1); id <= d.nextCommID; id++ {
		c, ok := d.comms[id]
		if !ok {
			continue
		}
		for rank, r := range c.Runners {
			if !r.Quiescent() {
				return fmt.Errorf("mccsd: communicator %d rank %d not quiescent after drain", id, rank)
			}
		}
		if err := c.Undelivered(); err != nil {
			return fmt.Errorf("mccsd: communicator %d not quiescent after drain: %w", id, err)
		}
	}
	return nil
}

// CommTrace returns the collective history of one rank of a communicator
// (the fine-grained tracing the TS policy analyzes for idle cycles): its
// last proxy.HistoryLen completed collectives, oldest first. The service
// keeps it whatever observers are attached, so no observer setting can
// change what the controller reads.
func (d *Deployment) CommTrace(id spec.CommID, rank int) ([]proxy.OpResult, error) {
	c, ok := d.comms[id]
	if !ok {
		return nil, fmt.Errorf("mccsd: unknown communicator %d", id)
	}
	if rank < 0 || rank >= len(c.Runners) {
		return nil, fmt.Errorf("mccsd: rank %d out of range", rank)
	}
	return c.Runners[rank].History(), nil
}
