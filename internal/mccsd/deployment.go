// Package mccsd implements the MCCS service: the trusted, provider-
// controlled process that owns all GPUs and NICs of every host (paper §3).
//
// A Deployment is the cluster-wide installation: one Service per host,
// one transport engine per host, one device per GPU, and the communicator
// registry. Tenant applications talk to their host's Service through a
// Frontend (the shim library boundary); the cloud provider talks to the
// Deployment through the management API (View / Reconfigure / UpdateRoutes
// / SetTrafficSchedule / CommTrace), which is what the external controller
// in internal/policy drives.
package mccsd

import (
	"fmt"
	"time"

	"mccs/internal/freelist"
	"mccs/internal/gpusim"
	"mccs/internal/netsim"
	"mccs/internal/proxy"
	"mccs/internal/sim"
	"mccs/internal/spec"
	"mccs/internal/telemetry"
	"mccs/internal/topo"
	"mccs/internal/trace"
	"mccs/internal/transport"
)

// StrategyProvider chooses the initial collective strategy for a new
// communicator. MCCS installs the provider's policy; the NCCL baseline
// installs rank-order rings.
type StrategyProvider func(cluster *topo.Cluster, info *spec.CommInfo) spec.Strategy

// Config sets the service's cost model and behaviour.
type Config struct {
	Proxy     proxy.Config
	Transport transport.Config
	Device    gpusim.DeviceConfig

	// CmdLatency is the shim-to-proxy command delivery latency (shared
	// memory queue plus internal engine hops). CompletionLatency is the
	// reverse notification path. Their sum is the paper's measured
	// 50-80 us MCCS datapath overhead.
	CmdLatency        time.Duration
	CompletionLatency time.Duration

	// Baseline marks library mode (the NCCL baseline): reconfiguration
	// is not supported, matching a library that fixes its strategy at
	// init time.
	Baseline bool

	// Strategy picks initial strategies; nil defaults to rank-order
	// rings with ECMP routing (what NCCL does with user-assigned ranks).
	Strategy StrategyProvider

	// Scratch keeps the deployment's memory for the next run sharing it
	// once Close hands it back; nil keeps none.
	Scratch *Scratch
}

// Scratch is the memory a service keeps from one run to the next (paper
// §3: the service owns GPU memory): device backings, message snapshots and
// the attached recorder's chunks. The zero value is empty and safe for
// concurrent deployments.
type Scratch struct {
	backings, snapshots freelist.List[float32]
	chunks              freelist.List[trace.Span]
}

// DefaultConfig returns the MCCS service configuration with the paper's
// measured datapath overhead.
func DefaultConfig() Config {
	return Config{
		Proxy:             proxy.DefaultConfig(),
		Device:            gpusim.DefaultConfig(),
		CmdLatency:        45 * time.Microsecond,
		CompletionLatency: 20 * time.Microsecond,
	}
}

// BaselineConfig returns library mode: in-process NCCL has no service hop,
// only kernel-launch-scale call latency, and cannot reconfigure.
func BaselineConfig() Config {
	c := DefaultConfig()
	c.CmdLatency = 4 * time.Microsecond
	c.CompletionLatency = 2 * time.Microsecond
	c.Baseline = true
	return c
}

// Deployment is the cluster-wide MCCS installation.
type Deployment struct {
	S       *sim.Scheduler
	Cluster *topo.Cluster
	Fabric  *netsim.Fabric
	cfg     Config

	engines  map[topo.HostID]*transport.Engine
	devices  map[topo.GPUID]*gpusim.Device
	services map[topo.HostID]*Service

	comms      map[spec.CommID]*proxy.Comm
	snapshots  *freelist.List[float32] // the scratch's, for new communicators
	nextCommID spec.CommID
	rdv        map[string]*rendezvous
	destroyed  map[spec.CommID]int
	priorities map[spec.AppID]int

	// Telemetry audit counters for communicator construction; nil and
	// no-ops when no registry is attached.
	telComms *telemetry.Counter
	telRings *telemetry.Counter
}

// NewDeployment installs the service on every host of the cluster.
func NewDeployment(s *sim.Scheduler, cluster *topo.Cluster, fabric *netsim.Fabric, cfg Config) *Deployment {
	if cfg.Transport.IntraBps <= 0 {
		cfg.Transport = transport.DefaultConfig(cluster.IntraHostBps)
	}
	if cfg.Strategy == nil {
		cfg.Strategy = RankOrderStrategy
	}
	d := &Deployment{
		S: s, Cluster: cluster, Fabric: fabric, cfg: cfg,
		engines:    make(map[topo.HostID]*transport.Engine),
		devices:    make(map[topo.GPUID]*gpusim.Device),
		services:   make(map[topo.HostID]*Service),
		comms:      make(map[spec.CommID]*proxy.Comm),
		rdv:        make(map[string]*rendezvous),
		destroyed:  make(map[spec.CommID]int),
		priorities: make(map[spec.AppID]int),
	}
	for h := range cluster.Hosts {
		hid := topo.HostID(h)
		d.engines[hid] = transport.NewEngine(s, cluster, fabric, hid, cfg.Transport)
		d.services[hid] = &Service{dep: d, host: hid, frontends: make(map[spec.AppID]*Frontend)}
	}
	var backings *freelist.List[float32]
	if sc := cfg.Scratch; sc != nil {
		backings, d.snapshots = &sc.backings, &sc.snapshots
		trace.Of(s).SetStore(&sc.chunks)
	}
	for g := range cluster.GPUs {
		gid := topo.GPUID(g)
		d.devices[gid] = gpusim.NewDevice(s, g, cfg.Device, backings)
	}
	// Observers are the caller's to attach (harness.NewEnv); the service
	// keeps its own collective history (CommTrace) without one.
	if rec := trace.Of(s); rec != nil {
		registerTopology(rec, cluster)
	}
	if reg := telemetry.Of(s); reg != nil {
		d.instrumentTelemetry(reg)
		d.telComms = reg.Counter("mccs_service_comms_total", "communicators")
		d.telRings = reg.Counter("mccs_service_rings_total", "rings")
	}
	return d
}

// registerTopology hands the recorder the name/ID maps the exporter and
// the attribution pass need: host names, GPU->host and fabric-node->host
// placement, and the fabric's link names and capacities.
func registerTopology(rec *trace.Recorder, cluster *topo.Cluster) {
	hosts := make([]string, len(cluster.Hosts))
	for h := range cluster.Hosts {
		hosts[h] = fmt.Sprintf("host%d", h)
	}
	gpuHost := make([]int32, len(cluster.GPUs))
	for g := range cluster.GPUs {
		gpuHost[g] = int32(cluster.HostOfGPU(topo.GPUID(g)))
	}
	nodeHost := make([]int32, cluster.Net.NumNodes())
	for i := range nodeHost {
		nodeHost[i] = -1
	}
	nodeNames := make([]string, cluster.Net.NumNodes())
	for i := range nodeNames {
		nodeNames[i] = cluster.Net.NodeName(netsim.NodeID(i))
	}
	for n := range cluster.NICs {
		nic := topo.NICID(n)
		nodeHost[cluster.NICNode(nic)] = int32(cluster.NICs[nic].Host)
	}
	links := make([]trace.LinkMeta, cluster.Net.NumLinks())
	for l := range links {
		id := netsim.LinkID(l)
		links[l] = trace.LinkMeta{Name: cluster.Net.LinkName(id), CapBps: cluster.Net.Link(id).Capacity}
	}
	rec.SetTopology(hosts, gpuHost, nodeHost, nodeNames)
	rec.SetLinks(links)
}

// Close releases the deployment's run-scoped memory into its scratch
// (Config.Scratch) for the next deployment: every device is reset
// (gpusim.Device.Reset), so each buffer still allocated reads as freed and
// its backing is free, and every communicator still alive hands its idle
// message snapshots back (proxy.Comm.Release; a destroyed one did when it
// was destroyed). Shut the scheduler down first; no buffer of the
// deployment may be read or written afterwards.
func (d *Deployment) Close() {
	for g := range d.Cluster.GPUs {
		d.devices[topo.GPUID(g)].Reset()
	}
	for _, c := range d.comms {
		c.Release()
	}
}

// Config returns the deployment's configuration.
func (d *Deployment) Config() Config { return d.cfg }

// Service returns the per-host service instance.
func (d *Deployment) Service(h topo.HostID) *Service { return d.services[h] }

// Device returns the simulated GPU device; tenant code uses it to create
// its compute streams.
func (d *Deployment) Device(g topo.GPUID) *gpusim.Device { return d.devices[g] }

// Engine returns the per-host transport engine (tests and the controller
// use it for gates and counters).
func (d *Deployment) Engine(h topo.HostID) *transport.Engine { return d.engines[h] }

// RankOrderStrategy is the NCCL-baseline provider: rings follow the
// user-assigned rank order (inter-host ring = rank order), one channel per
// equal-cost path up to the configured maximum, all routed by ECMP.
func RankOrderStrategy(cluster *topo.Cluster, info *spec.CommInfo) spec.Strategy {
	order := make([]int, info.NumRanks())
	for i := range order {
		order[i] = i
	}
	// NCCL stripes NICs across channels within a host (its intra-host
	// optimization works even when the inter-host order is naive).
	return spec.RingStrategy(order, info.Ranks, defaultChannelCount(cluster, info), false)
}

// defaultChannelCount mirrors NCCL's multi-channel behaviour: enough rings
// to exploit the fabric's path diversity, but no more rings than the NICs
// the communicator drives per host (one affinity NIC per rank).
func defaultChannelCount(cluster *topo.Cluster, info *spec.CommInfo) int {
	hosts := info.Hosts()
	if len(hosts) < 2 {
		return 1
	}
	a := cluster.Hosts[hosts[0]].NICs[0]
	b := cluster.Hosts[hosts[1]].NICs[0]
	n := len(cluster.PathsBetweenNICs(a, b))
	if n < 1 {
		n = 1
	}
	counts := make(map[topo.HostID]int)
	for _, ri := range info.Ranks {
		counts[ri.Host]++
	}
	for _, c := range counts {
		if c < n {
			n = c
		}
	}
	if n < 1 {
		n = 1
	}
	return n
}

// destroyRank records one rank's Destroy call; when every rank has
// called, the communicator is torn down and removed from the view.
func (d *Deployment) destroyRank(id spec.CommID) error {
	c, ok := d.comms[id]
	if !ok {
		return fmt.Errorf("mccsd: destroy of unknown communicator %d", id)
	}
	d.destroyed[id]++
	if d.destroyed[id] == c.Info.NumRanks() {
		c.Destroy()
		delete(d.comms, id)
		delete(d.destroyed, id)
	}
	return nil
}

// rendezvous collects CommInitRank calls until all ranks arrive.
type rendezvous struct {
	key     string
	app     spec.AppID
	nranks  int
	arrived int
	ranks   []spec.RankInfo
	present []bool
	fut     *sim.Future[commOrErr]
}

type commOrErr struct {
	comm *proxy.Comm
	err  error
}

// register adds one rank; when complete, it builds the communicator.
func (d *Deployment) register(key string, app spec.AppID, nranks, rank int, gpu topo.GPUID) (*sim.Future[commOrErr], error) {
	r, ok := d.rdv[key]
	if !ok {
		r = &rendezvous{
			key: key, app: app, nranks: nranks,
			ranks:   make([]spec.RankInfo, nranks),
			present: make([]bool, nranks),
			fut:     sim.NewFuture[commOrErr](),
		}
		d.rdv[key] = r
	}
	if r.nranks != nranks {
		return nil, fmt.Errorf("mccsd: rendezvous %q size mismatch: %d vs %d", key, nranks, r.nranks)
	}
	if r.app != app {
		return nil, fmt.Errorf("mccsd: rendezvous %q crosses applications %q and %q", key, r.app, app)
	}
	if rank < 0 || rank >= nranks {
		return nil, fmt.Errorf("mccsd: rank %d out of range [0,%d)", rank, nranks)
	}
	if r.present[rank] {
		return nil, fmt.Errorf("mccsd: rank %d registered twice for %q", rank, key)
	}
	r.present[rank] = true
	r.ranks[rank] = spec.RankInfo{
		Rank: rank, GPU: gpu,
		Host: d.Cluster.HostOfGPU(gpu),
		NIC:  d.Cluster.NICOfGPU(gpu),
	}
	r.arrived++
	if r.arrived == nranks {
		delete(d.rdv, key)
		d.nextCommID++
		info := spec.CommInfo{
			ID: d.nextCommID, App: app,
			Ranks:    append([]spec.RankInfo(nil), r.ranks...),
			Priority: d.priorities[app],
		}
		info.Strategy = d.cfg.Strategy(d.Cluster, &info)
		comm, err := proxy.NewComm(d.S, d.Cluster, d.engines, d.devices, info, d.cfg.Proxy, d.snapshots)
		if err != nil {
			r.fut.Set(d.S, commOrErr{err: err})
			return r.fut, nil
		}
		d.comms[info.ID] = comm
		trace.Of(d.S).NoteComm(int32(info.ID), string(app))
		telemetry.Of(d.S).NoteComm(int32(info.ID), string(app))
		d.telComms.Inc()
		d.telRings.Add(int64(len(info.Strategy.Channels)))
		r.fut.Set(d.S, commOrErr{comm: comm})
	}
	return r.fut, nil
}
