// Package mccs is a Go implementation of MCCS — Managed Collective
// Communication as a Service (Wu et al., SIGCOMM 2024) — on a simulated
// GPU/RDMA substrate.
//
// MCCS moves collective communication (AllReduce, AllGather, ...) out of
// tenant-linked libraries and into a provider-controlled host service.
// Tenants keep an NCCL-like API; the provider gains topology-aware ring
// construction, explicit flow routing, runtime reconfiguration and QoS.
//
// # Quick start
//
//	env, _ := mccs.NewTestbed(mccs.SystemMCCS)
//	// Start one process per rank:
//	for rank, gpu := range gpus {
//	    env.Scheduler().Go("rank", func(p *sim.Proc) {
//	        f := env.Frontend(gpu, "my-app")
//	        buf, _ := f.MemAlloc(p, gpu, bytes, false)
//	        comm, _ := f.CommInitRank(p, "job-0", n, rank, gpu)
//	        h, _ := comm.AllReduce(p, nil, buf, count, nil)
//	        h.Wait(p)
//	    })
//	}
//	env.Scheduler().Run()
//
// The root package re-exports the user-facing types; the implementation
// lives under internal/ (see DESIGN.md for the package map):
//
//   - internal/sim: deterministic virtual-time scheduler
//   - internal/netsim: flow-level datacenter fabric (max-min fairness,
//     ECMP, explicit routes)
//   - internal/gpusim: CUDA-like device/stream/event/IPC model
//   - internal/collective: ring collective algorithms + verification
//   - internal/transport, internal/proxy, internal/mccsd: the MCCS
//     service (transport engines, proxy engines with the Fig. 4
//     reconfiguration protocol, frontends, management API)
//   - internal/policy: provider policies (locality rings, FFA, PFA, TS)
//     and the external controller
//   - internal/ncclsim: the NCCL / NCCL(OR) / MCCS(-FA) / MCCS presets
//   - internal/harness, internal/workload, internal/cluster: the
//     paper's experiments (Figs. 2, 3, 6-11)
package mccs

import (
	"mccs/internal/gpusim"
	"mccs/internal/harness"
	"mccs/internal/mccsd"
	"mccs/internal/ncclsim"
	"mccs/internal/policy"
	"mccs/internal/sim"
	"mccs/internal/spec"
	"mccs/internal/topo"
)

// Re-exported core types. These aliases are the public API surface; the
// internal packages they point at carry the full documentation.
type (
	// Scheduler is the deterministic virtual-time scheduler everything
	// runs on.
	Scheduler = sim.Scheduler
	// Proc is a simulated process (one tenant rank, one service engine).
	Proc = sim.Proc
	// Time is a virtual timestamp.
	Time = sim.Time

	// Cluster is the physical topology: hosts, GPUs, NICs, switches.
	Cluster = topo.Cluster
	// GPUID identifies a GPU.
	GPUID = topo.GPUID
	// HostID identifies a host.
	HostID = topo.HostID

	// Deployment is the cluster-wide MCCS service installation.
	Deployment = mccsd.Deployment
	// Service is the per-host service instance.
	Service = mccsd.Service
	// Frontend is the per-application shim boundary on one host.
	Frontend = mccsd.Frontend
	// Comm is a tenant communicator handle (the NCCL-like API).
	Comm = mccsd.Comm
	// OpHandle tracks an issued collective.
	OpHandle = mccsd.OpHandle
	// OpStats is the tenant-observed timing of one collective.
	OpStats = mccsd.OpStats

	// Buffer is simulated GPU memory.
	Buffer = gpusim.Buffer
	// Stream is a GPU work queue; Event a GPU synchronization event.
	Stream = gpusim.Stream
	// Event is the CUDA-event analogue.
	Event = gpusim.Event

	// Strategy is a provider-chosen collective configuration.
	Strategy = spec.Strategy
	// CommInfo is the management-plane view of a communicator.
	CommInfo = spec.CommInfo
	// AppID names a tenant application.
	AppID = spec.AppID

	// Controller drives provider policies against a deployment.
	Controller = policy.Controller

	// System selects one of the paper's evaluated configurations.
	System = ncclsim.System

	// ClosConfig describes a spine-leaf cluster shape for NewCluster.
	ClosConfig = topo.ClosConfig
	// FatTreeConfig describes a three-tier fat-tree for NewFatTreeCluster.
	FatTreeConfig = topo.FatTreeConfig
)

// NewFatTreeCluster builds a three-tier fat-tree cluster (pods of racks
// joined by a core tier) running the given system.
func NewFatTreeCluster(cfg FatTreeConfig, system System) (*Env, error) {
	cluster, err := topo.BuildFatTree(cfg)
	if err != nil {
		return nil, err
	}
	return newEnv(cluster, system)
}

// TestbedConfig returns the paper's testbed shape (§6.1).
func TestbedConfig() ClosConfig { return topo.TestbedConfig() }

// LargeScaleConfig returns the paper's 768-GPU simulation shape (§6.5).
func LargeScaleConfig() ClosConfig { return topo.LargeScaleConfig() }

// The four evaluated systems (paper §6.1 baselines).
const (
	SystemNCCL     = ncclsim.NCCL
	SystemNCCLOR   = ncclsim.NCCLOR
	SystemMCCSNoFA = ncclsim.MCCSNoFA
	SystemMCCS     = ncclsim.MCCS
)

// Env bundles a scheduler, cluster, fabric and deployment — everything an
// application or experiment needs.
type Env struct{ env *harness.Env }

// Scheduler returns the virtual-time scheduler. Call Run (or RunUntil)
// after spawning your processes.
func (e *Env) Scheduler() *Scheduler { return e.env.S }

// Cluster returns the physical topology.
func (e *Env) Cluster() *Cluster { return e.env.Cluster }

// Deployment returns the MCCS service installation (the provider-side
// management API hangs off it).
func (e *Env) Deployment() *Deployment { return e.env.Deployment }

// Frontend returns the shim frontend for app on the host owning gpu.
func (e *Env) Frontend(gpu GPUID, app AppID) *Frontend {
	return e.env.Deployment.Service(e.env.Cluster.HostOfGPU(gpu)).Frontend(app)
}

// NewController attaches a policy controller to the deployment.
func (e *Env) NewController() *Controller { return policy.NewController(e.env.Deployment) }

// NewTestbed builds the paper's 4-host, 8-GPU, 2-rack testbed running the
// given system.
func NewTestbed(system System) (*Env, error) {
	return NewCluster(topo.TestbedConfig(), system)
}

// NewLargeCluster builds the paper's 768-GPU spine-leaf cluster running
// the given system.
func NewLargeCluster(system System) (*Env, error) {
	return NewCluster(topo.LargeScaleConfig(), system)
}

// NewCluster builds a custom spine-leaf cluster running the given system.
func NewCluster(cfg topo.ClosConfig, system System) (*Env, error) {
	cluster, err := topo.BuildClos(cfg)
	if err != nil {
		return nil, err
	}
	return newEnv(cluster, system)
}

func newEnv(cluster *topo.Cluster, system System) (*Env, error) {
	env, err := harness.NewEnv(harness.EnvOptions{System: system, Cluster: cluster})
	if err != nil {
		return nil, err
	}
	return &Env{env: env}, nil
}
