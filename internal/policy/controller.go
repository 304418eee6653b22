package policy

import (
	"fmt"
	"slices"
	"time"

	"mccs/internal/mccsd"
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

// ApplyTS traces the prioritized communicator, computes the complementary
// time-window schedule, and installs it for every *other* application.
// rank selects whose trace to analyze (collective timing is symmetric
// across ranks, so rank 0 is customary).
func (c *Controller) ApplyTS(prioritized spec.CommID, rank int) error {
	var prioApp spec.AppID
	var victims []spec.AppID
	seen := make(map[spec.AppID]bool)
	for _, ci := range c.dep.View() {
		if ci.ID == prioritized {
			prioApp = ci.App
		}
	}
	for _, ci := range c.dep.View() {
		if ci.App != prioApp && !seen[ci.App] {
			seen[ci.App] = true
			victims = append(victims, ci.App)
		}
	}
	return c.ApplyTSFor(prioritized, rank, victims)
}

// ApplyTSFor is ApplyTS restricted to an explicit victim set — the paper's
// PFA+TS scenario schedules only tenant C around tenant B's busy windows,
// leaving the PFA-protected tenant A untouched.
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
