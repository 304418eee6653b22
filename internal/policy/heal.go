package policy

import (
	"mccs/internal/netsim"
	"mccs/internal/spec"
)

// This file holds the controller's link-recovery moves. The self-healing
// remediation engine (internal/remediation) drives them when a link is
// quarantined, whether for a capacity dip, persistent external traffic or
// a diagnosis verdict.

// Remedy identifies which recovery move was applied to a communicator.
type Remedy uint8

const (
	// RemedyNone means no connection of the communicator touched an
	// affected link, so nothing was done.
	RemedyNone Remedy = iota
	// RemedyRepin means the affected connections were re-pinned onto
	// clean equal-cost paths (no reconfiguration barrier needed).
	RemedyRepin
	// RemedyReverse means no clean alternate path existed and the rings
	// were reversed through the Fig. 4 reconfiguration barrier.
	RemedyReverse
	// RemedyFailed means neither move was possible (e.g. a baseline
	// deployment refusing reconfiguration).
	RemedyFailed
)

var remedyNames = [...]string{"none", "repin", "reverse", "failed"}

func (r Remedy) String() string {
	if int(r) < len(remedyNames) {
		return remedyNames[r]
	}
	return "?"
}

// AffectedConns returns the communicator's connections whose pinned or
// hashed route crosses any of the given links, in the deployment's
// deterministic route-map order folded to a stable slice (callers only
// test emptiness or pass the slice straight back to RepinOrReverse).
func (c *Controller) AffectedConns(ci spec.CommInfo, bad map[netsim.LinkID]bool) []spec.ConnKey {
	comm, ok := c.dep.Comm(ci.ID)
	if !ok {
		return nil
	}
	var affected []spec.ConnKey
	for key, path := range comm.ConnRoutes() {
		for _, l := range path {
			if bad[l] {
				affected = append(affected, key)
				break
			}
		}
	}
	return affected
}

// RepinOrReverse moves the affected connections off the bad links:
// re-pinning each onto the first clean equal-cost path when path
// diversity exists, reversing the rings (the Fig. 7 move) when it does
// not. The affected slice must come from AffectedConns with the same
// bad set.
func (c *Controller) RepinOrReverse(ci spec.CommInfo, affected []spec.ConnKey, bad map[netsim.LinkID]bool) Remedy {
	if len(affected) == 0 {
		return RemedyNone
	}
	d := c.dep
	comm, ok := d.Comm(ci.ID)
	if !ok {
		return RemedyNone
	}
	// Path diversity available? Re-pin the affected connections onto the
	// first equal-cost path that avoids every congested link.
	canReroute := true
	newRoutes := make(map[spec.ConnKey]int, len(affected))
	for _, key := range affected {
		src := d.Cluster.NICNode(ci.Ranks[key.FromRank].NIC)
		dst := d.Cluster.NICNode(ci.Ranks[key.ToRank].NIC)
		idx, ok := cleanPath(d.Cluster.Net, src, dst, bad)
		if !ok {
			canReroute = false
			break
		}
		newRoutes[key] = idx
	}
	if canReroute {
		if err := d.UpdateRoutes(ci.ID, newRoutes); err == nil {
			return RemedyRepin
		}
	}
	// No clean alternate path: reverse the rings (the Fig. 7 move) and
	// let the reconfiguration barrier switch every rank safely.
	cur := comm.Strategy()
	if _, err := d.ReconfigureAsync(ci.ID, cur.Reversed(), nil); err != nil {
		// Baseline deployments cannot reconfigure; nothing to do.
		return RemedyFailed
	}
	return RemedyReverse
}

// Degrade installs a reduced-channel copy of the communicator's current
// strategy — the self-healing escalation ladder's last rung when no
// clean path exists and re-tuning did not recover: keep only the first
// channel's ring, on ECMP routing, so the remaining traffic spreads
// over whatever equal-cost paths still work.
func (c *Controller) Degrade(ci spec.CommInfo) error {
	comm, ok := c.dep.Comm(ci.ID)
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
	_, err := c.dep.ReconfigureAsync(ci.ID, deg, nil)
	return err
}

// cleanPath returns the index of the first equal-cost path between the
// endpoints that avoids all congested links.
func cleanPath(net *netsim.Network, src, dst netsim.NodeID, bad map[netsim.LinkID]bool) (int, bool) {
	paths := net.PathsBetween(src, dst)
	if len(paths) < 2 {
		return 0, false
	}
	for i, p := range paths {
		clean := true
		for _, l := range p {
			if bad[l] {
				clean = false
				break
			}
		}
		if clean {
			return i, true
		}
	}
	return 0, false
}
