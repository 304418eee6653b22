package topo

import (
	"fmt"

	"mccs/internal/netsim"
)

// Three-tier fat-tree support. The paper's locality-aware ring policy
// groups participants "under the same rack, under the same pod" (§4.3
// example #1); the two-tier spine-leaf testbed only exercises the rack
// level, so this builder provides the pod level: pods of leaf racks
// joined by per-pod aggregation switches, pods joined by core switches.

// FatTreeConfig describes a three-tier fabric.
type FatTreeConfig struct {
	Pods        int
	AggsPerPod  int
	CoresPerAgg int // core switches per aggregation index (total cores = AggsPerPod * CoresPerAgg)

	LeavesPerPod int
	HostsPerLeaf int
	GPUsPerHost  int
	NICsPerHost  int

	NICBps       float64
	LeafAggBps   float64
	AggCoreBps   float64
	IntraHostBps float64
}

// Validate reports configuration errors.
func (cfg *FatTreeConfig) Validate() error {
	switch {
	case cfg.Pods < 1 || cfg.AggsPerPod < 1 || cfg.CoresPerAgg < 1:
		return fmt.Errorf("topo: fat-tree needs pods/aggs/cores >= 1")
	case cfg.LeavesPerPod < 1 || cfg.HostsPerLeaf < 1:
		return fmt.Errorf("topo: fat-tree needs leaves/hosts >= 1")
	case cfg.GPUsPerHost < 1 || cfg.NICsPerHost < 1 || cfg.GPUsPerHost%cfg.NICsPerHost != 0:
		return fmt.Errorf("topo: bad GPU/NIC config %d/%d", cfg.GPUsPerHost, cfg.NICsPerHost)
	case cfg.NICBps <= 0 || cfg.LeafAggBps <= 0 || cfg.AggCoreBps <= 0:
		return fmt.Errorf("topo: link rates must be positive")
	}
	return nil
}

// BuildFatTree constructs the three-tier cluster. Core switch (a, j)
// connects to aggregation switch a of every pod, so two NICs in different
// pods see AggsPerPod x CoresPerAgg equal-cost paths, while same-pod
// cross-rack NICs see AggsPerPod paths.
//
// Rack IDs are assigned pod-major, so any policy that orders racks by ID
// (like policy.LocalityRing) automatically groups racks of one pod
// together — giving the paper's pod-level locality for free.
func BuildFatTree(cfg FatTreeConfig) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cluster{Net: netsim.NewNetwork(), IntraHostBps: cfg.IntraHostBps}
	if c.IntraHostBps <= 0 {
		c.IntraHostBps = 200 * Gbps
	}

	// Core tier: cores[a][j] links to agg a of every pod.
	cores := make([][]netsim.NodeID, cfg.AggsPerPod)
	for a := range cores {
		for j := 0; j < cfg.CoresPerAgg; j++ {
			cores[a] = append(cores[a], c.Net.AddNode(fmt.Sprintf("core%d-%d", a, j)))
		}
	}

	gpusPerNIC := cfg.GPUsPerHost / cfg.NICsPerHost
	for pod := 0; pod < cfg.Pods; pod++ {
		var aggs []netsim.NodeID
		for a := 0; a < cfg.AggsPerPod; a++ {
			agg := c.Net.AddNode(fmt.Sprintf("pod%d-agg%d", pod, a))
			aggs = append(aggs, agg)
			c.SpineNodes = append(c.SpineNodes, agg)
			for _, core := range cores[a] {
				c.Net.AddDuplex(agg, core, cfg.AggCoreBps)
			}
		}
		for l := 0; l < cfg.LeavesPerPod; l++ {
			leaf := c.Net.AddNode(fmt.Sprintf("pod%d-leaf%d", pod, l))
			rack := RackID(len(c.LeafNodes))
			c.LeafNodes = append(c.LeafNodes, leaf)
			c.PodOfRack = append(c.PodOfRack, pod)
			for _, agg := range aggs {
				c.Net.AddDuplex(leaf, agg, cfg.LeafAggBps)
			}
			for h := 0; h < cfg.HostsPerLeaf; h++ {
				hid := HostID(len(c.Hosts))
				host := Host{ID: hid, Name: fmt.Sprintf("p%d-l%d-h%d", pod, l, h), Rack: rack}
				for n := 0; n < cfg.NICsPerHost; n++ {
					node := c.Net.AddNode(fmt.Sprintf("%s-nic%d", host.Name, n))
					c.Net.AddDuplex(node, leaf, cfg.NICBps)
					nid := NICID(len(c.NICs))
					c.NICs = append(c.NICs, NIC{ID: nid, Host: hid, Index: n, Node: node, Rate: cfg.NICBps})
					host.NICs = append(host.NICs, nid)
				}
				for g := 0; g < cfg.GPUsPerHost; g++ {
					gid := GPUID(len(c.GPUs))
					c.GPUs = append(c.GPUs, GPU{ID: gid, Host: hid, Index: g, NIC: host.NICs[g/gpusPerNIC]})
					host.GPUs = append(host.GPUs, gid)
				}
				c.Hosts = append(c.Hosts, host)
			}
		}
	}
	return c, nil
}

// PodOf returns the pod of a rack (0 in two-tier clusters with no pod
// metadata).
func (c *Cluster) PodOf(r RackID) int {
	if int(r) < len(c.PodOfRack) {
		return c.PodOfRack[r]
	}
	return 0
}
