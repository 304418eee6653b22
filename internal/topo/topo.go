// Package topo models the physical cluster: hosts with GPUs and NICs,
// racks, and the switching fabric that connects them. It builds the
// netsim.Network for a given cluster shape and carries the locality
// metadata (which rack a host is in, which NIC serves a GPU) that the
// provider-side policies in internal/policy exploit — exactly the
// information the paper argues a cloud provider has and tenants do not.
package topo

import (
	"fmt"
	"strconv"
	"strings"

	"mccs/internal/netsim"
)

// Gbps converts gigabits per second to the simulator's bytes-per-second
// unit.
const Gbps = 125e6

// IDs for the cluster inventory. They index the Cluster's slices.
type (
	HostID int
	GPUID  int
	NICID  int
	RackID int
)

// GPU is one accelerator. Its NIC field is the host NIC with the best
// affinity (the one the provider uses for this GPU's inter-host traffic).
type GPU struct {
	Host HostID
	NIC  NICID
}

// NIC is one (possibly virtual) network interface, an endpoint node in the
// fabric graph.
type NIC struct {
	Host HostID
	Node netsim.NodeID
	Rate float64 // bytes/sec
}

// Host is one server.
type Host struct {
	ID   HostID
	Name string
	Rack RackID
	GPUs []GPUID
	NICs []NICID
}

// Cluster is the full physical inventory plus the fabric graph.
type Cluster struct {
	Net   *netsim.Network
	Hosts []Host
	GPUs  []GPU
	NICs  []NIC

	// LeafNodes[r] is the switch node of rack r; SpineNodes are the
	// second-tier switches (empty for non-Clos topologies).
	LeafNodes  []netsim.NodeID
	SpineNodes []netsim.NodeID
	// PodOfRack[r] is rack r's pod in three-tier fat-trees (empty for
	// two-tier clusters; PodOf treats missing entries as pod 0).
	PodOfRack []int

	// IntraHostBps is the bandwidth of the intra-host GPU-to-GPU channel
	// (NVLink / shared host memory), used by the collective engine for
	// same-host steps that never touch the fabric.
	IntraHostBps float64

	// nicIDs and gpuIDs list every NIC's and GPU's ID in ID order; a
	// host's NICs and GPUs get consecutive IDs, so Host.NICs and Host.GPUs
	// are capped windows of them, not lists of their own.
	nicIDs []NICID
	gpuIDs []GPUID
}

// NumRacks returns the number of racks (leaf switches).
func (c *Cluster) NumRacks() int { return len(c.LeafNodes) }

// RackOf returns the rack that hosts h.
func (c *Cluster) RackOf(h HostID) RackID { return c.Hosts[h].Rack }

// HostOfGPU returns the host owning GPU g.
func (c *Cluster) HostOfGPU(g GPUID) HostID { return c.GPUs[g].Host }

// NICOfGPU returns the affinity NIC of GPU g.
func (c *Cluster) NICOfGPU(g GPUID) NICID { return c.GPUs[g].NIC }

// NICNode returns the fabric node of NIC n.
func (c *Cluster) NICNode(n NICID) netsim.NodeID { return c.NICs[n].Node }

// PathsBetweenNICs returns all equal-cost shortest fabric paths between two
// NICs. This is the provider's multipath choice set for MCCS route pinning
// and the ECMP hash domain for the baseline.
func (c *Cluster) PathsBetweenNICs(a, b NICID) [][]netsim.LinkID {
	return c.Net.PathsBetween(c.NICs[a].Node, c.NICs[b].Node)
}

// ClosConfig describes a two-tier spine-leaf fabric.
type ClosConfig struct {
	Spines       int
	Leaves       int // one leaf per rack
	HostsPerLeaf int
	GPUsPerHost  int
	NICsPerHost  int     // GPUs are striped across NICs by index
	NICBps       float64 // NIC and host-to-leaf link rate, bytes/sec
	LeafSpineBps float64 // per leaf-spine link rate, bytes/sec
	IntraHostBps float64 // intra-host channel rate; 0 picks a default
}

// Validate reports configuration errors.
func (cfg *ClosConfig) Validate() error {
	switch {
	case cfg.Spines < 1:
		return fmt.Errorf("topo: Spines = %d, need >= 1", cfg.Spines)
	case cfg.Leaves < 1:
		return fmt.Errorf("topo: Leaves = %d, need >= 1", cfg.Leaves)
	case cfg.HostsPerLeaf < 1:
		return fmt.Errorf("topo: HostsPerLeaf = %d, need >= 1", cfg.HostsPerLeaf)
	case cfg.GPUsPerHost < 1:
		return fmt.Errorf("topo: GPUsPerHost = %d, need >= 1", cfg.GPUsPerHost)
	case cfg.NICsPerHost < 1:
		return fmt.Errorf("topo: NICsPerHost = %d, need >= 1", cfg.NICsPerHost)
	case cfg.GPUsPerHost%cfg.NICsPerHost != 0:
		return fmt.Errorf("topo: GPUsPerHost (%d) must be a multiple of NICsPerHost (%d)",
			cfg.GPUsPerHost, cfg.NICsPerHost)
	case cfg.NICBps <= 0 || cfg.LeafSpineBps <= 0:
		return fmt.Errorf("topo: link rates must be positive")
	}
	return nil
}

// BuildClos constructs the cluster for a spine-leaf config. Every NIC gets
// its own duplex link to its rack's leaf; every leaf connects to every
// spine. GPU i uses NIC i*NICsPerHost/GPUsPerHost (striping), matching the
// paper's one-NIC-per-GPU testbed arrangement.
func BuildClos(cfg ClosConfig) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := newCluster(cfg.IntraHostBps, cfg.Spines+cfg.Leaves, cfg.Spines*cfg.Leaves,
		cfg.Leaves*cfg.HostsPerLeaf, cfg.NICsPerHost, cfg.GPUsPerHost)
	for s := 0; s < cfg.Spines; s++ {
		c.SpineNodes = append(c.SpineNodes, c.Net.AddNode("spine"+strconv.Itoa(s)))
	}
	for l := 0; l < cfg.Leaves; l++ {
		leaf := c.Net.AddNode("leaf" + strconv.Itoa(l))
		c.LeafNodes = append(c.LeafNodes, leaf)
		for _, spine := range c.SpineNodes {
			c.Net.AddDuplex(leaf, spine, cfg.LeafSpineBps)
		}
		for h := 0; h < cfg.HostsPerLeaf; h++ {
			c.addHost("h"+strconv.Itoa(l)+"-"+strconv.Itoa(h), RackID(l), leaf, cfg.NICsPerHost, cfg.GPUsPerHost, cfg.NICBps)
		}
	}
	return c, nil
}

// newCluster returns an empty cluster whose fabric and inventory tables
// have room for switches switches joined by duplexes duplex links, plus
// hosts hosts of nics NICs (each with its own duplex uplink) and gpus GPUs,
// so a builder never regrows them. intraHostBps <= 0 picks a conservative
// PCIe/shared-memory figure; NVLink-class systems override it via the
// config.
func newCluster(intraHostBps float64, switches, duplexes, hosts, nics, gpus int) *Cluster {
	if intraHostBps <= 0 {
		intraHostBps = 200 * Gbps
	}
	c := &Cluster{
		Net:   netsim.NewNetwork(),
		Hosts: make([]Host, 0, hosts), NICs: make([]NIC, 0, hosts*nics), GPUs: make([]GPU, 0, hosts*gpus),
		IntraHostBps: intraHostBps,
		nicIDs:       make([]NICID, 0, hosts*nics), gpuIDs: make([]GPUID, 0, hosts*gpus),
	}
	c.Net.Grow(switches+hosts*nics, 2*(duplexes+hosts*nics))
	return c
}

// addHost adds a host in rack under switch leaf: nics NICs, each with its
// own duplex link of rate bps to the switch, and gpus GPUs striped across
// them (GPU i uses NIC i*nics/gpus).
func (c *Cluster) addHost(name string, rack RackID, leaf netsim.NodeID, nics, gpus int, bps float64) {
	hid := HostID(len(c.Hosts))
	firstNIC, firstGPU := len(c.NICs), len(c.GPUs)
	// The NIC nodes' names, name-nic0, name-nic1, ..., are substrings of
	// one string: one allocation per host, not one per NIC.
	var names strings.Builder
	names.Grow(nics * (len(name) + len("-nic") + 3))
	for n := 0; n < nics; n++ {
		start := names.Len()
		names.WriteString(name)
		names.WriteString("-nic")
		names.WriteString(strconv.Itoa(n))
		node := c.Net.AddNode(names.String()[start:])
		c.Net.AddDuplex(node, leaf, bps)
		nid := NICID(len(c.NICs))
		c.NICs = append(c.NICs, NIC{Host: hid, Node: node, Rate: bps})
		c.nicIDs = append(c.nicIDs, nid)
	}
	gpusPerNIC := gpus / nics
	for g := 0; g < gpus; g++ {
		c.gpuIDs = append(c.gpuIDs, GPUID(len(c.GPUs)))
		c.GPUs = append(c.GPUs, GPU{Host: hid, NIC: NICID(firstNIC + g/gpusPerNIC)})
	}
	// A table that outgrew its reservation moved; the windows taken
	// before then still read the IDs they were given.
	c.Hosts = append(c.Hosts, Host{
		ID: hid, Name: name, Rack: rack,
		NICs: c.nicIDs[firstNIC:len(c.nicIDs):len(c.nicIDs)],
		GPUs: c.gpuIDs[firstGPU:len(c.gpuIDs):len(c.gpuIDs)],
	})
}

// TestbedConfig returns the paper's testbed (§6.1, Fig. 5a): 4 hosts in
// 2 racks, 2 spines, 2 GPUs and 2 virtual 50 Gbps NICs per host, 50 Gbps
// inter-switch links — a 2:1 oversubscribed spine-leaf.
func TestbedConfig() ClosConfig {
	return ClosConfig{
		Spines:       2,
		Leaves:       2,
		HostsPerLeaf: 2,
		GPUsPerHost:  2,
		NICsPerHost:  2,
		NICBps:       50 * Gbps,
		LeafSpineBps: 50 * Gbps,
	}
}

// LargeScaleConfig returns the paper's simulated cluster (§6.5): 768 GPUs,
// 16 spines, 24 leaves, 4 hosts per leaf, 8 GPUs + 8 NICs per host, all
// links 200 Gbps (2:1 oversubscription).
func LargeScaleConfig() ClosConfig {
	return ClosConfig{
		Spines:       16,
		Leaves:       24,
		HostsPerLeaf: 4,
		GPUsPerHost:  8,
		NICsPerHost:  8,
		NICBps:       200 * Gbps,
		LeafSpineBps: 200 * Gbps,
	}
}

// RingConfig describes a ring of switches with one host per switch — the
// Fig. 7 reconfiguration scenario.
type RingConfig struct {
	Switches     int
	GPUsPerHost  int
	NICsPerHost  int
	NICBps       float64
	SwitchBps    float64 // inter-switch ring link rate
	IntraHostBps float64
}

// BuildSwitchRing constructs the ring-of-switches topology. LeafNodes holds
// the switch nodes (one "rack" per switch); SpineNodes is empty.
func BuildSwitchRing(cfg RingConfig) (*Cluster, error) {
	if cfg.Switches < 3 {
		return nil, fmt.Errorf("topo: switch ring needs >= 3 switches, got %d", cfg.Switches)
	}
	if cfg.GPUsPerHost < 1 || cfg.NICsPerHost < 1 || cfg.GPUsPerHost%cfg.NICsPerHost != 0 {
		return nil, fmt.Errorf("topo: bad GPU/NIC config %d/%d", cfg.GPUsPerHost, cfg.NICsPerHost)
	}
	if cfg.NICBps <= 0 || cfg.SwitchBps <= 0 {
		return nil, fmt.Errorf("topo: link rates must be positive")
	}
	c := newCluster(cfg.IntraHostBps, cfg.Switches, cfg.Switches, cfg.Switches, cfg.NICsPerHost, cfg.GPUsPerHost)
	for sw := 0; sw < cfg.Switches; sw++ {
		node := c.Net.AddNode("sw" + strconv.Itoa(sw))
		c.LeafNodes = append(c.LeafNodes, node)
	}
	for sw := 0; sw < cfg.Switches; sw++ {
		next := (sw + 1) % cfg.Switches
		c.Net.AddDuplex(c.LeafNodes[sw], c.LeafNodes[next], cfg.SwitchBps)
	}
	for sw := 0; sw < cfg.Switches; sw++ {
		c.addHost("h"+strconv.Itoa(sw), RackID(sw), c.LeafNodes[sw], cfg.NICsPerHost, cfg.GPUsPerHost, cfg.NICBps)
	}
	return c, nil
}

// RingLinkBetween returns the directed inter-switch link from switch a to
// switch b in a switch-ring cluster (they must be adjacent). It is used to
// place the Fig. 7 background flow on a specific ring segment.
func (c *Cluster) RingLinkBetween(a, b RackID) (netsim.LinkID, error) {
	na, nb := c.LeafNodes[a], c.LeafNodes[b]
	for i := 0; i < c.Net.NumLinks(); i++ {
		l := c.Net.Link(netsim.LinkID(i))
		if l.From == na && l.To == nb {
			return l.ID, nil
		}
	}
	return 0, fmt.Errorf("topo: no ring link %d -> %d", a, b)
}
