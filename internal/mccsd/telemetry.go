package mccsd

import (
	"math/bits"

	"mccs/internal/netsim"
	"mccs/internal/sim"
	"mccs/internal/telemetry"
)

// fabricCollector is the pull side of the telemetry plane. The per-link
// gauges, the active-flow gauge and the per-(tenant, link) achieved rates
// are pull gauges, read out of the fabric's settled allocation when the
// registry is — nothing is written between reads. What stays per instant
// is the registry collector: the SLO tracker dates a violation at the
// first instant its predicate holds, and a tenant-link gauge becomes a
// column at the first instant the pair carries a flow. The sampler calls
// it at every end-of-instant pass; it works only when something it reads
// has moved — the fabric's allocation epoch, the comm→tenant table or the
// SLO window index. Tenants and (tenant, link) pairs are dense indexes, so
// a run performs no map operation and, once its scratch has grown, no
// allocation.
type fabricCollector struct {
	d   *Deployment
	reg *telemetry.Registry

	// What the last run read; collect returns at once while all three
	// still hold. epoch starts below any real one.
	epoch, commVersion int
	window             int64

	// run numbers the attributions; a tenantSlot or linkShares written in
	// this one carries the same number, anything else is stale.
	run uint64
	// slots[t][l] locates tenant t's share of link l (t a
	// Registry.TenantIndex); a row is allocated when the tenant's first flow
	// shows up.
	slots [][]tenantSlot
	// links[l] holds the shares of link l. touched is the set of links with
	// at least one in the current run, hot its subset with a bottlenecked
	// share — the only links whose SLO predicate can hold — both as bitsets,
	// which iterate in ascending link order.
	links        []linkShares
	touched, hot []uint64
	// novel is set by an attribution that met a (tenant, link) pair with
	// no gauge yet.
	novel bool
}

// tenantSlot is one (tenant, link) pair: while run matches the
// collector's, idx is the tenant's entry in the link's shares. registered
// says its mccs_tenant_link_bps gauge exists.
type tenantSlot struct {
	run        uint64
	idx        int32
	registered bool
}

// linkShares is, as of run, every managed tenant with a flow crossing one
// link — the summed rate of its flows there and whether one of them is
// bottlenecked on it — in first-seen flow-ID order, the form and order the
// SLO tracker takes them in. tenant[i] is the registry index of share[i].
type linkShares struct {
	run    uint64
	share  []telemetry.TenantShare
	tenant []int32
}

// instrumentTelemetry registers the fabric link inventory and the
// collector with the attached registry. Called once from NewDeployment.
func (d *Deployment) instrumentTelemetry(reg *telemetry.Registry) *fabricCollector {
	fb, net := d.Fabric, d.Cluster.Net
	nLinks := net.NumLinks()
	links := make([]telemetry.LinkInfo, nLinks)
	c := &fabricCollector{
		d: d, reg: reg,
		epoch:   -1,
		links:   make([]linkShares, nLinks),
		touched: make([]uint64, (nLinks+63)/64),
		hot:     make([]uint64, (nLinks+63)/64),
	}
	for l := 0; l < nLinks; l++ {
		id := netsim.LinkID(l)
		name := net.LinkName(id)
		links[l] = telemetry.LinkInfo{ID: int32(l), Name: name, CapBps: net.Link(id).Capacity}
		lb := telemetry.L("link", name)
		reg.GaugeFunc("mccs_fabric_link_bps", "bytes/s", func() float64 { return fb.LinkRate(id) }, lb)
		reg.GaugeFunc("mccs_fabric_link_utilization", "ratio", func() float64 { return fb.LinkUtilization(id) }, lb)
		reg.GaugeFunc("mccs_fabric_link_external_bps", "bytes/s", func() float64 { return fb.ExternalRate(id) }, lb)
	}
	reg.GaugeFunc("mccs_fabric_active_flows", "flows", func() float64 { return float64(fb.ActiveFlows()) })
	reg.SetLinks(links)
	reg.AddCollector(c.collect)
	return c
}

func (c *fabricCollector) collect(now sim.Time) bool {
	epoch, commVersion := c.d.Fabric.AllocEpoch(), c.reg.CommVersion()
	window := c.reg.SLO.WindowIndex(now)
	moved := epoch != c.epoch || commVersion != c.commVersion
	if !moved && window == c.window {
		return false
	}
	c.epoch, c.commVersion, c.window = epoch, commVersion, window
	if moved {
		c.attribute()
	}
	c.observe(now)
	return true
}

// attribute walks the active flows once and rebuilds the per-(tenant,
// link) shares.
func (c *fabricCollector) attribute() {
	clear(c.touched)
	clear(c.hot)
	c.run++
	c.d.Fabric.EachFlow(func(fv netsim.FlowView) {
		if fv.External {
			return
		}
		t := c.reg.TenantIndex(fv.Comm)
		if t < 0 {
			// Managed but unattributable (untagged P2P warm-up traffic);
			// it cannot be a named tenant's SLO victim.
			return
		}
		for len(c.slots) <= t {
			c.slots = append(c.slots, nil)
		}
		if c.slots[t] == nil {
			c.slots[t] = make([]tenantSlot, len(c.links))
		}
		row := c.slots[t]
		for _, l := range fv.Route {
			sl, ls := &row[l], &c.links[l]
			if sl.run != c.run {
				if ls.run != c.run {
					ls.run, ls.share, ls.tenant = c.run, ls.share[:0], ls.tenant[:0]
					c.touched[l>>6] |= 1 << (l & 63)
				}
				sl.run, sl.idx = c.run, int32(len(ls.share))
				c.novel = c.novel || !sl.registered
				ls.share = append(ls.share, telemetry.TenantShare{Tenant: c.reg.TenantName(t)})
				ls.tenant = append(ls.tenant, int32(t))
			}
			sh := &ls.share[sl.idx]
			sh.Bps += fv.Rate
			if fv.Bottleneck == l {
				sh.Bottlenecked = true
				c.hot[l>>6] |= 1 << (l & 63)
			}
		}
	})
}

// observe hands the SLO tracker the shares of every link where its
// predicate can hold, in ascending link order, which keeps the violation
// stream deterministic. When the attribution met pairs it had not seen, it
// takes every link with a share instead and registers their tenant-link
// gauges on the way, link by link, ahead of that link's violation counters:
// registration order is column order. It also runs, over an unchanged
// attribution, at the first instant of each window: the violation dedup is
// per window.
func (c *fabricCollector) observe(now sim.Time) {
	fb, net := c.d.Fabric, c.d.Cluster.Net
	set := c.hot
	if c.novel {
		set = c.touched
	}
	for w, word := range set {
		for ; word != 0; word &= word - 1 {
			l := w<<6 + bits.TrailingZeros64(word)
			ls := &c.links[l]
			if c.novel {
				for _, t := range ls.tenant {
					c.register(int(t), l)
				}
			}
			id := netsim.LinkID(l)
			c.reg.SLO.ObserveLink(now, int32(l), net.LinkName(id), net.Link(id).Capacity, fb.LinkRate(id), ls.share)
		}
	}
	c.novel = false
}

// register creates the mccs_tenant_link_bps gauge of tenant t on link l
// unless it exists.
func (c *fabricCollector) register(t, l int) {
	sl := &c.slots[t][l]
	if sl.registered {
		return
	}
	sl.registered = true
	c.reg.GaugeFunc("mccs_tenant_link_bps", "bytes/s", func() float64 {
		// A tenant idle on the link reads 0, not its last busy value.
		if sl.run != c.run {
			return 0
		}
		return c.links[l].share[sl.idx].Bps
	}, telemetry.L("tenant", c.reg.TenantName(t)), telemetry.L("link", c.d.Cluster.Net.LinkName(netsim.LinkID(l))))
}
