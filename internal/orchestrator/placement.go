package orchestrator

import (
	"sort"

	"mccs/internal/topo"
)

// Locality classifies how tightly a placement packed a job.
type Locality int

const (
	// LocalityHost means every GPU is on one host (NVLink-only traffic).
	LocalityHost Locality = iota
	// LocalityRack means the job spans hosts under one leaf switch.
	LocalityRack
	// LocalityCross means the job spilled across racks and its rings
	// must traverse the spine layer.
	LocalityCross
)

var localityNames = [...]string{"host", "rack", "cross-rack"}

func (l Locality) String() string {
	if int(l) < len(localityNames) {
		return localityNames[l]
	}
	return "?"
}

// Placer chooses GPUs for a job out of the free pool. free is sorted
// ascending by GPU ID; implementations must be deterministic functions
// of (cluster, free, n) — ties broken by ID — so same-seed runs place
// identically. ok is false when no placement exists under the placer's
// policy (the job stays queued).
type Placer interface {
	Place(c *topo.Cluster, free []topo.GPUID, n int) (gpus []topo.GPUID, ok bool)
}

// hostFree is one host's free GPUs during a placement decision.
type hostFree struct {
	id   topo.HostID
	rack topo.RackID
	gpus []topo.GPUID // ascending
}

// freeByHost groups the free pool per host, hosts ascending by ID.
// Hosts with nothing free are dropped.
func freeByHost(c *topo.Cluster, free []topo.GPUID) []hostFree {
	byHost := make(map[topo.HostID][]topo.GPUID)
	for _, g := range free {
		h := c.HostOfGPU(g)
		byHost[h] = append(byHost[h], g)
	}
	hosts := make([]topo.HostID, 0, len(byHost))
	for h := range byHost {
		hosts = append(hosts, h)
	}
	sort.Slice(hosts, func(i, j int) bool { return hosts[i] < hosts[j] })
	out := make([]hostFree, 0, len(hosts))
	for _, h := range hosts {
		out = append(out, hostFree{id: h, rack: c.RackOf(h), gpus: byHost[h]})
	}
	return out
}

// rackFree is one rack's free hosts during a placement decision.
type rackFree struct {
	id    topo.RackID
	hosts []hostFree // ascending by host ID
	total int
}

// freeByRack groups per-host free lists per rack, racks ascending by ID.
func freeByRack(hosts []hostFree) []rackFree {
	byRack := make(map[topo.RackID]*rackFree)
	var ids []topo.RackID
	for _, h := range hosts {
		r := byRack[h.rack]
		if r == nil {
			r = &rackFree{id: h.rack}
			byRack[h.rack] = r
			ids = append(ids, h.rack)
		}
		r.hosts = append(r.hosts, h)
		r.total += len(h.gpus)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]rackFree, 0, len(ids))
	for _, id := range ids {
		out = append(out, *byRack[id])
	}
	return out
}

// BinPack is the default locality-aware bin-packer: fill a single host
// if one fits (tightest host first, so big holes survive for big jobs),
// else a single rack (tightest rack; within it, emptiest hosts first to
// use the fewest hosts), and only then spill across racks — taking the
// emptiest racks first so the spill touches as few spine paths as
// possible.
type BinPack struct{}

func (BinPack) Place(c *topo.Cluster, free []topo.GPUID, n int) ([]topo.GPUID, bool) {
	if n <= 0 || n > len(free) {
		return nil, false
	}
	hosts := freeByHost(c, free)

	// Tightest single host that fits.
	best := -1
	for i, h := range hosts {
		if len(h.gpus) < n {
			continue
		}
		if best < 0 || len(h.gpus) < len(hosts[best].gpus) {
			best = i
		}
	}
	if best >= 0 {
		return append([]topo.GPUID(nil), hosts[best].gpus[:n]...), true
	}

	// Tightest single rack that fits; emptiest hosts within it first.
	racks := freeByRack(hosts)
	best = -1
	for i, r := range racks {
		if r.total < n {
			continue
		}
		if best < 0 || r.total < racks[best].total {
			best = i
		}
	}
	if best >= 0 {
		return takeFromHosts(racks[best].hosts, n), true
	}

	// Cross-rack spill: emptiest racks first (fewest racks touched),
	// emptiest hosts within each.
	order := make([]int, len(racks))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		return racks[order[i]].total > racks[order[j]].total
	})
	var out []topo.GPUID
	for _, ri := range order {
		out = append(out, takeFromHosts(racks[ri].hosts, n-len(out))...)
		if len(out) == n {
			return out, true
		}
	}
	return nil, false
}

// takeFromHosts takes up to n GPUs, emptiest hosts first (ties by host
// ID), GPUs in ID order within a host.
func takeFromHosts(hosts []hostFree, n int) []topo.GPUID {
	order := make([]int, len(hosts))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		return len(hosts[order[i]].gpus) > len(hosts[order[j]].gpus)
	})
	var out []topo.GPUID
	for _, hi := range order {
		for _, g := range hosts[hi].gpus {
			if len(out) == n {
				return out
			}
			out = append(out, g)
		}
	}
	return out
}

// RackSpread is the anti-affinity placer: it deals GPUs round-robin
// across racks (rack-ascending, hosts and GPUs in ID order within each
// rack), so a job's ranks land on as many racks as possible. Useful for
// failure-domain spreading and for experiments that want cross-rack
// rings under contention.
type RackSpread struct{}

func (RackSpread) Place(c *topo.Cluster, free []topo.GPUID, n int) ([]topo.GPUID, bool) {
	if n <= 0 || n > len(free) {
		return nil, false
	}
	racks := freeByRack(freeByHost(c, free))
	pools := make([][]topo.GPUID, len(racks))
	for i, r := range racks {
		for _, h := range r.hosts {
			pools[i] = append(pools[i], h.gpus...)
		}
	}
	var out []topo.GPUID
	for len(out) < n {
		took := false
		for i := range pools {
			if len(pools[i]) == 0 {
				continue
			}
			out = append(out, pools[i][0])
			pools[i] = pools[i][1:]
			took = true
			if len(out) == n {
				break
			}
		}
		if !took {
			return nil, false
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, true
}

// localityOf classifies a placement.
func localityOf(c *topo.Cluster, gpus []topo.GPUID) Locality {
	if len(gpus) == 0 {
		return LocalityHost
	}
	h0 := c.HostOfGPU(gpus[0])
	sameHost := true
	r0 := c.RackOf(h0)
	sameRack := true
	for _, g := range gpus[1:] {
		h := c.HostOfGPU(g)
		if h != h0 {
			sameHost = false
		}
		if c.RackOf(h) != r0 {
			sameRack = false
		}
	}
	switch {
	case sameHost:
		return LocalityHost
	case sameRack:
		return LocalityRack
	default:
		return LocalityCross
	}
}
