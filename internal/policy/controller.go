package policy

import (
	"fmt"
	"slices"
	"time"

	"mccs/internal/mccsd"
	"mccs/internal/netsim"
	"mccs/internal/sim"
	"mccs/internal/spec"
	"mccs/internal/telemetry"
)

// Controller is the external centralized manager of paper §4.3: it
// consumes the deployment's management view and pushes policy decisions
// back through the management API. It holds no mechanism of its own.
type Controller struct {
	dep *mccsd.Deployment
	// PrioThreshold is the priority at or above which an app counts as
	// prioritized for PFA.
	PrioThreshold int

	// Policy-decision audit counters; nil-safe when no registry is
	// attached to the deployment's scheduler.
	telFFA        *telemetry.Counter // FFA assignments pushed
	telPFA        *telemetry.Counter // PFA assignments pushed
	telRoutes     *telemetry.Counter // per-comm route pins pushed
	telTSInstalls *telemetry.Counter // TS schedules installed on victims
	telTSWindows  *telemetry.Counter // busy windows across installed schedules
	telTSClears   *telemetry.Counter // TS schedules cleared

	// stratInfo tracks the live mccs_tuner_strategy_info gauge per app
	// so a new autotune decision can retire the previous one.
	stratInfo map[spec.AppID]*telemetry.Gauge
}

// reservedRoutes are the path indices PFA dedicates to prioritized
// applications; tsGuard pads TS busy windows against jitter.
var reservedRoutes = []int{0}

const tsGuard = 200 * time.Microsecond

// NewController attaches a controller to a deployment.
func NewController(dep *mccsd.Deployment) *Controller {
	reg := telemetry.Of(dep.S)
	return &Controller{
		dep:           dep,
		PrioThreshold: 1,
		telFFA:        reg.Counter("mccs_policy_applies_total", "applies", telemetry.L("policy", "ffa")),
		telPFA:        reg.Counter("mccs_policy_applies_total", "applies", telemetry.L("policy", "pfa")),
		telRoutes:     reg.Counter("mccs_policy_routes_pinned_total", "route-sets"),
		telTSInstalls: reg.Counter("mccs_policy_ts_installs_total", "schedules"),
		telTSWindows:  reg.Counter("mccs_policy_ts_windows_total", "windows"),
		telTSClears:   reg.Counter("mccs_policy_ts_clears_total", "schedules"),
	}
}

// ApplyFFA computes fair flow assignment over all active communicators
// and pushes the route pins.
func (c *Controller) ApplyFFA() error {
	view := c.dep.View()
	a := FFA(c.dep.Cluster, view)
	c.telFFA.Inc()
	return c.push(a)
}

// ApplyPFA computes priority flow assignment and pushes the route pins.
func (c *Controller) ApplyPFA() error {
	view := c.dep.View()
	a := PFA(c.dep.Cluster, view, reservedRoutes, c.PrioThreshold)
	c.telPFA.Inc()
	return c.push(a)
}

// push installs an assignment one communicator at a time in ascending
// ID order, so the first error and the pins counted before it do not
// depend on map order.
func (c *Controller) push(a Assignment) error {
	ids := make([]spec.CommID, 0, len(a))
	for comm := range a {
		ids = append(ids, comm)
	}
	slices.Sort(ids)
	for _, comm := range ids {
		if err := c.dep.UpdateRoutes(comm, a[comm]); err != nil {
			return fmt.Errorf("policy: pushing routes to comm %d: %w", comm, err)
		}
		c.telRoutes.Inc()
	}
	return nil
}

// ApplyTSFor traces one rank of the prioritized communicator (collective
// timing is symmetric across ranks, so rank 0 is customary), computes the
// complementary time-window schedule and installs it for the given victim
// applications — the paper's PFA+TS scenario schedules only tenant C
// around tenant B's busy windows, leaving the PFA-protected tenant A
// untouched.
func (c *Controller) ApplyTSFor(prioritized spec.CommID, rank int, victims []spec.AppID) error {
	trace, err := c.dep.CommTrace(prioritized, rank)
	if err != nil {
		return err
	}
	sched, err := ComputeTS(trace, tsGuard)
	if err != nil {
		return err
	}
	for _, app := range victims {
		if err := c.dep.SetTrafficSchedule(app, sched); err != nil {
			return err
		}
		c.telTSInstalls.Inc()
		c.telTSWindows.Add(int64(len(sched.Slots)))
	}
	return nil
}

// ClearTSFor removes the traffic schedules of the given applications — the
// inverse of ApplyTSFor, for when the tenant they were derived from is gone.
func (c *Controller) ClearTSFor(apps ...spec.AppID) {
	for _, app := range apps {
		c.dep.ClearTrafficSchedule(app)
		c.telTSClears.Inc()
	}
}

// The link-recovery moves below hold no controller state and count
// nothing. The self-healing remediation engine (internal/remediation)
// drives them when a link is quarantined, and the Fig. 7 showcase
// reverses its ring with Reverse.

// AffectedConns returns the communicator's connections whose pinned or
// hashed route crosses link l, in no particular order (callers test
// emptiness, count them, or pass them straight back to Repin).
func AffectedConns(dep *mccsd.Deployment, ci spec.CommInfo, l netsim.LinkID) []spec.ConnKey {
	comm, ok := dep.Comm(ci.ID)
	if !ok {
		return nil
	}
	var affected []spec.ConnKey
	for key, path := range comm.ConnRoutes() {
		if slices.Contains(path, l) {
			affected = append(affected, key)
		}
	}
	return affected
}

// Repin pins each affected connection onto the first equal-cost path that
// avoids link l, with no reconfiguration barrier. It reports false, and
// moves nothing, when some connection has no such path (no path
// diversity) or the deployment refuses the pins. aff comes from
// AffectedConns with the same link.
func Repin(dep *mccsd.Deployment, ci spec.CommInfo, aff []spec.ConnKey, l netsim.LinkID) bool {
	routes := make(map[spec.ConnKey]int, len(aff))
	for _, key := range aff {
		src := dep.Cluster.NICNode(ci.Ranks[key.FromRank].NIC)
		dst := dep.Cluster.NICNode(ci.Ranks[key.ToRank].NIC)
		idx, ok := cleanPath(dep.Cluster.Net, src, dst, l)
		if !ok {
			return false
		}
		routes[key] = idx
	}
	return dep.UpdateRoutes(ci.ID, routes) == nil
}

// Reverse installs spec.Strategy.Reversed of the communicator's strategy
// (the Fig. 7 move) through the reconfiguration barrier, which switches
// every rank safely. The returned latch opens when every rank has switched.
func Reverse(dep *mccsd.Deployment, id spec.CommID) (*sim.Latch, error) {
	comm, ok := dep.Comm(id)
	if !ok {
		return nil, fmt.Errorf("policy: unknown communicator %d", id)
	}
	cur := comm.Strategy()
	return dep.Reconfigure(id, cur.Reversed(), nil)
}

// Degrade installs a reduced-channel copy of the communicator's current
// strategy — the self-healing escalation ladder's last rung when no
// clean path exists and re-tuning did not recover: keep only the first
// channel's ring, on ECMP routing, so the remaining traffic spreads
// over whatever equal-cost paths still work.
func Degrade(dep *mccsd.Deployment, ci spec.CommInfo) error {
	comm, ok := dep.Comm(ci.ID)
	if !ok {
		return nil
	}
	cur := comm.Strategy()
	if len(cur.Channels) == 0 {
		return nil
	}
	deg := spec.Strategy{
		TreeThreshold: cur.TreeThreshold,
		Algorithm:     cur.Algorithm,
		Channels: []spec.ChannelSpec{{
			Order: append([]int(nil), cur.Channels[0].Order...),
			Route: spec.RouteECMP,
		}},
	}
	_, err := dep.Reconfigure(ci.ID, deg, nil)
	return err
}

// cleanPath returns the index of the first equal-cost path between the
// endpoints that avoids link l.
func cleanPath(net *netsim.Network, src, dst netsim.NodeID, l netsim.LinkID) (int, bool) {
	paths := net.PathsBetween(src, dst)
	if len(paths) < 2 {
		return 0, false
	}
	for i, p := range paths {
		if !slices.Contains(p, l) {
			return i, true
		}
	}
	return 0, false
}
