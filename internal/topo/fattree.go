package topo

import (
	"fmt"
	"strconv"

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
	nAggs, nLeaves := cfg.Pods*cfg.AggsPerPod, cfg.Pods*cfg.LeavesPerPod
	c := newCluster(cfg.IntraHostBps, cfg.AggsPerPod*cfg.CoresPerAgg+nAggs+nLeaves,
		nAggs*cfg.CoresPerAgg+nLeaves*cfg.AggsPerPod, nLeaves*cfg.HostsPerLeaf, cfg.NICsPerHost, cfg.GPUsPerHost)

	// Core tier: cores[a][j] links to agg a of every pod.
	cores := make([][]netsim.NodeID, cfg.AggsPerPod)
	for a := range cores {
		for j := 0; j < cfg.CoresPerAgg; j++ {
			cores[a] = append(cores[a], c.Net.AddNode("core"+strconv.Itoa(a)+"-"+strconv.Itoa(j)))
		}
	}

	for pod := 0; pod < cfg.Pods; pod++ {
		var aggs []netsim.NodeID
		for a := 0; a < cfg.AggsPerPod; a++ {
			agg := c.Net.AddNode("pod" + strconv.Itoa(pod) + "-agg" + strconv.Itoa(a))
			aggs = append(aggs, agg)
			c.SpineNodes = append(c.SpineNodes, agg)
			for _, core := range cores[a] {
				c.Net.AddDuplex(agg, core, cfg.AggCoreBps)
			}
		}
		for l := 0; l < cfg.LeavesPerPod; l++ {
			leaf := c.Net.AddNode("pod" + strconv.Itoa(pod) + "-leaf" + strconv.Itoa(l))
			rack := RackID(len(c.LeafNodes))
			c.LeafNodes = append(c.LeafNodes, leaf)
			c.PodOfRack = append(c.PodOfRack, pod)
			for _, agg := range aggs {
				c.Net.AddDuplex(leaf, agg, cfg.LeafAggBps)
			}
			for h := 0; h < cfg.HostsPerLeaf; h++ {
				name := "p" + strconv.Itoa(pod) + "-l" + strconv.Itoa(l) + "-h" + strconv.Itoa(h)
				c.addHost(name, rack, leaf, cfg.NICsPerHost, cfg.GPUsPerHost, cfg.NICBps)
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
