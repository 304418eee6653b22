package mccsd

import (
	"fmt"

	"mccs/internal/collective"
	"mccs/internal/gpusim"
	"mccs/internal/proxy"
	"mccs/internal/sim"
	"mccs/internal/spec"
	"mccs/internal/telemetry"
	"mccs/internal/topo"
	"mccs/internal/trace"
)

// Service is the per-host MCCS service instance. Tenants reach it through
// per-application Frontends; each Frontend models the shim library's
// shared-memory command queue plus the service-internal engine hops.
type Service struct {
	dep       *Deployment
	host      topo.HostID
	frontends map[spec.AppID]*Frontend
}

// Host returns the host this service instance runs on.
func (sv *Service) Host() topo.HostID { return sv.host }

// Frontend returns (creating on first use) the frontend engine for an
// application on this host.
func (sv *Service) Frontend(app spec.AppID) *Frontend {
	f, ok := sv.frontends[app]
	if !ok {
		f = &Frontend{sv: sv, app: app}
		if reg := telemetry.Of(sv.dep.S); reg != nil {
			tenant := telemetry.L("tenant", string(app))
			host := telemetry.L("host", sv.dep.Cluster.Hosts[sv.host].Name)
			f.telCmds = reg.Counter("mccs_frontend_cmds_total", "commands", tenant, host)
			f.telInflight = reg.Gauge("mccs_frontend_inflight", "commands", tenant, host)
			f.telRTT = reg.Histogram("mccs_frontend_cmd_rtt_seconds", "seconds", nil, tenant, host)
		}
		sv.frontends[app] = f
	}
	return f
}

// Frontend is the application-facing engine: the MCCS shim boundary. All
// methods are called from tenant processes; each models the command-path
// latency of crossing from the tenant into the service.
type Frontend struct {
	sv  *Service
	app spec.AppID

	// Telemetry handles for the command queue this frontend models:
	// commands issued, commands in flight (queue depth), and the
	// tenant-observed round-trip latency. Nil (no-op) without a registry.
	telCmds     *telemetry.Counter
	telInflight *telemetry.Gauge
	telRTT      *telemetry.Histogram
}

// App returns the owning application.
func (f *Frontend) App() spec.AppID { return f.app }

func (f *Frontend) dep() *Deployment { return f.sv.dep }

// checkGPU validates that the GPU is on this frontend's host.
func (f *Frontend) checkGPU(gpu topo.GPUID) error {
	if int(gpu) < 0 || int(gpu) >= len(f.dep().Cluster.GPUs) {
		return fmt.Errorf("mccsd: unknown GPU %d", gpu)
	}
	if f.dep().Cluster.HostOfGPU(gpu) != f.sv.host {
		return fmt.Errorf("mccsd: GPU %d is on host %d, not host %d",
			gpu, f.dep().Cluster.HostOfGPU(gpu), f.sv.host)
	}
	return nil
}

// MemAlloc redirects a GPU allocation to the service (paper §4.1 "Memory
// Management"): the service allocates on the tenant's behalf and shares
// the buffer back through an inter-process memory handle, which the shim
// opens. backed buffers carry real data for correctness verification.
func (f *Frontend) MemAlloc(p *sim.Proc, gpu topo.GPUID, bytes int64, backed bool) (*gpusim.Buffer, error) {
	if err := f.checkGPU(gpu); err != nil {
		return nil, err
	}
	p.Sleep(f.dep().cfg.CmdLatency)
	dev := f.dep().devices[gpu]
	var (
		buf *gpusim.Buffer
		err error
	)
	if backed {
		buf, err = dev.AllocBacked(bytes)
	} else {
		buf, err = dev.Alloc(bytes)
	}
	if err != nil {
		return nil, err
	}
	// Round-trip through the IPC handle machinery the way the real shim
	// does (service allocates, exports; shim opens).
	alias, err := gpusim.OpenMemHandle(buf.IPCHandle())
	if err != nil {
		return nil, err
	}
	p.Sleep(f.dep().cfg.CompletionLatency)
	return alias, nil
}

// MemFree releases a buffer obtained from MemAlloc: the shim closes its
// IPC mapping, then the service frees the allocation. A buffer that an
// issued operation still reads or writes is refused, mapping intact.
func (f *Frontend) MemFree(p *sim.Proc, buf *gpusim.Buffer) error {
	p.Sleep(f.dep().cfg.CmdLatency)
	if n := buf.InUse(); n > 0 {
		return fmt.Errorf("mccsd: MemFree of a buffer %d issued operation(s) still use", n)
	}
	if err := gpusim.CloseMemHandle(buf); err != nil {
		return err
	}
	return buf.Free()
}

// Comm is the tenant-side communicator handle (the shim's view). It
// carries the event plumbing of §4.1: a per-communicator completion event
// tenant streams wait on, and on-demand per-stream events the service
// waits on before touching tenant data.
type Comm struct {
	f         *Frontend
	pc        *proxy.Comm
	rank      int
	dev       *gpusim.Device
	destroyed bool

	commEvent    *gpusim.Event
	streamEvents map[*gpusim.Stream]*gpusim.Event
}

// CommInitRank registers this process as one rank of a communicator
// (ncclCommInitRank analogue). key is the out-of-band unique ID; the call
// blocks until all nranks ranks of the application have registered and the
// service has built the communicator under the provider-chosen strategy.
func (f *Frontend) CommInitRank(p *sim.Proc, key string, nranks, rank int, gpu topo.GPUID) (*Comm, error) {
	if err := f.checkGPU(gpu); err != nil {
		return nil, err
	}
	if nranks < 1 {
		return nil, fmt.Errorf("mccsd: communicator of %d ranks", nranks)
	}
	p.Sleep(f.dep().cfg.CmdLatency)
	fut, err := f.dep().register(key, f.app, nranks, rank, gpu)
	if err != nil {
		return nil, err
	}
	res := fut.Wait(p)
	if res.err != nil {
		return nil, res.err
	}
	return &Comm{
		f: f, pc: res.comm, rank: rank,
		dev:          f.dep().devices[gpu],
		commEvent:    gpusim.NewEvent(),
		streamEvents: make(map[*gpusim.Stream]*gpusim.Event),
	}, nil
}

// Rank returns this handle's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the communicator size.
func (c *Comm) Size() int { return c.pc.Info.NumRanks() }

// ID returns the communicator's cluster-wide ID.
func (c *Comm) ID() spec.CommID { return c.pc.Info.ID }

// OpStats is the tenant-observed timing of one collective.
type OpStats struct {
	Op     collective.Op
	Issued sim.Time // when the shim call was made
	Done   sim.Time // when the completion reached the tenant
	Bytes  int64    // output bytes (AlgBW numerator)
}

// Elapsed returns the tenant-observed duration.
func (s OpStats) Elapsed() sim.Duration { return s.Done.Sub(s.Issued) }

// AlgBW returns the algorithm bandwidth in bytes/sec.
func (s OpStats) AlgBW() float64 { return collective.AlgBW(s.Bytes, s.Elapsed()) }

// OpHandle tracks one issued operation — and is everything the operation is
// between the shim call and its completion: the request the proxy runner
// executes, the completion instance tenant streams wait on, the future the
// tenant waits on, and the receiver of the two latency hops of the command
// path. It is the one allocation an operation costs the service. It is not
// pooled: the tenant holds it for as long as it likes and never hands it
// back, so only the collector knows when it is free.
type OpHandle struct {
	c      *Comm
	req    proxy.OpRequest
	fired  gpusim.RecordInstance // the communicator event's record for this op
	done   sim.Future[OpStats]
	issued sim.Time
	bytes  int64 // output bytes
}

// Wait blocks until the collective completes and returns its stats.
func (h *OpHandle) Wait(p *sim.Proc) OpStats { return h.done.Wait(p) }

// Ready reports whether the collective has completed.
func (h *OpHandle) Ready() bool { return h.done.Ready() }

// The command path's two hops, as arguments of OnEvent.
const (
	hopDeliver   uint64 = iota // shim → service: the request reaches the rank's runner
	hopCompleted               // service → shim: the completion reaches the tenant
)

// OpCompleted is the runner reporting the operation finished (it implements
// proxy.Completer): the operation's buffers are free to release, and the
// notification starts its way back to the tenant.
func (h *OpHandle) OpCompleted() {
	h.req.RecvBuf.Release()
	if h.req.SendBuf != nil {
		h.req.SendBuf.Release()
	}
	d := h.c.f.dep()
	d.S.AfterCall(d.cfg.CompletionLatency, h, hopCompleted)
}

// OnEvent lands a hop of the command path (it implements sim.Handler).
func (h *OpHandle) OnEvent(hop uint64) {
	c := h.c
	s := c.f.dep().S
	if hop == hopDeliver {
		c.pc.Runners[c.rank].Enqueue(&h.req)
		return
	}
	h.fired.Fire(s)
	h.done.Set(s, OpStats{Op: h.req.Op, Issued: h.issued, Done: s.Now(), Bytes: h.bytes})
	c.f.telInflight.Add(-1)
	c.f.telRTT.Observe(s.Now().Sub(h.issued).Seconds())
	// The cmd span measures the full shim round-trip the tenant observes
	// for a collective: command-queue delivery, execution, and the
	// completion notification path (the paper's 50-80us datapath overhead
	// brackets the collective).
	if rec := trace.Of(s); rec.Enabled(trace.KindCmd) && h.req.P2P == 0 {
		rec.Emit(trace.Span{
			Kind: trace.KindCmd, Op: int32(h.req.Op),
			Start: h.issued, End: s.Now(),
			Host: int32(c.f.sv.host), GPU: int32(c.dev.ID),
			Comm: int32(c.ID()), Rank: int32(c.rank),
			Peer: -1, Channel: -1, Step: -1, Gen: -1,
			Seq: h.req.Sequence(), Bytes: h.bytes,
			Label: string(c.f.app),
			Flow:  -1, Src: -1, Dst: -1,
		})
	}
}

// streamEvent returns the on-demand event for an application stream,
// creating it on first use (paper §4.1: "the MCCS shim creates events in
// an on-demand fashion whenever a new application stream is used").
func (c *Comm) streamEvent(st *gpusim.Stream) *gpusim.Event {
	ev, ok := c.streamEvents[st]
	if !ok {
		ev = gpusim.NewEvent()
		c.streamEvents[st] = ev
	}
	return ev
}

// opName names a request in an error message.
func opName(req *proxy.OpRequest) string {
	if req.P2P != 0 {
		return "p2p"
	}
	return req.Op.String()
}

// issue performs the shim-side synchronization dance and hands the op —
// req, less the event plumbing filled in here — to the rank's proxy runner:
//  1. record the app stream's event (the op depends on prior compute);
//  2. install a new completion instance on the communicator event and make
//     the app stream wait on it (subsequent compute depends on the op);
//  3. deliver the request to the proxy after the command-path latency.
func (c *Comm) issue(req proxy.OpRequest, stream *gpusim.Stream) (*OpHandle, error) {
	count := req.Count
	if c.destroyed {
		return nil, fmt.Errorf("mccsd: %s on destroyed communicator %d", opName(&req), c.ID())
	}
	if count <= 0 {
		return nil, fmt.Errorf("mccsd: %s with count %d", opName(&req), count)
	}
	if req.RecvBuf == nil {
		return nil, fmt.Errorf("mccsd: %s without buffer", opName(&req))
	}
	// The proxy slices the buffers by count without looking at their size
	// again, so a count the tenant never allocated must stop here (compared
	// in elements: an absurd count cannot overflow its way past the check).
	outRanks := int64(1)
	if req.Op == collective.AllGather {
		outRanks = int64(c.Size())
	}
	if room := req.RecvBuf.Bytes() / 4 / outRanks; count > room {
		return nil, fmt.Errorf("mccsd: %s of %d elements into a buffer with room for %d", opName(&req), count, room)
	}
	if req.SendBuf != nil && count > req.SendBuf.Bytes()/4 {
		return nil, fmt.Errorf("mccsd: %s of %d elements from a buffer holding %d", opName(&req), count, req.SendBuf.Bytes()/4)
	}
	if req.Root < 0 || req.Root >= c.Size() {
		return nil, fmt.Errorf("mccsd: root %d out of range", req.Root)
	}
	if req.P2P != 0 && (req.Peer < 0 || req.Peer >= c.Size() || req.Peer == c.rank) {
		return nil, fmt.Errorf("mccsd: p2p peer %d invalid for rank %d of %d", req.Peer, c.rank, c.Size())
	}
	d := c.f.dep()
	h := &OpHandle{c: c, req: req, issued: d.S.Now(), bytes: count * 4 * outRanks}
	h.req.OnComplete = h
	req.RecvBuf.Acquire()
	if req.SendBuf != nil {
		req.SendBuf.Acquire()
	}

	if stream != nil {
		appEv := c.streamEvent(stream)
		stream.Record(appEv)
		// Snapshot at issue time: a later op re-records the same stream
		// event, and the proxy must not bind to that.
		h.req.AppEvent = appEv.Snapshot()
	}
	c.commEvent.ManualRecord(&h.fired)
	if stream != nil {
		stream.WaitEvent(c.commEvent)
	}

	c.f.telCmds.Inc()
	c.f.telInflight.Add(1)
	d.S.AfterCall(d.cfg.CmdLatency, h, hopDeliver)
	return h, nil
}

// AllReduce sums count elements across all ranks (in place when send ==
// recv or send is nil).
func (c *Comm) AllReduce(p *sim.Proc, send, recv *gpusim.Buffer, count int64, stream *gpusim.Stream) (*OpHandle, error) {
	if send == nil {
		send = recv
	}
	return c.issue(proxy.OpRequest{Op: collective.AllReduce, Count: count, SendBuf: send, RecvBuf: recv}, stream)
}

// AllGather concatenates each rank's count elements into recv, laid out by
// rank.
func (c *Comm) AllGather(p *sim.Proc, send, recv *gpusim.Buffer, count int64, stream *gpusim.Stream) (*OpHandle, error) {
	if send == nil {
		return nil, fmt.Errorf("mccsd: AllGather requires a send buffer")
	}
	return c.issue(proxy.OpRequest{Op: collective.AllGather, Count: count, SendBuf: send, RecvBuf: recv}, stream)
}

// ReduceScatter sums count elements across ranks, leaving region r of the
// sum on rank r (in place).
func (c *Comm) ReduceScatter(p *sim.Proc, send, recv *gpusim.Buffer, count int64, stream *gpusim.Stream) (*OpHandle, error) {
	if send == nil {
		send = recv
	}
	return c.issue(proxy.OpRequest{Op: collective.ReduceScatter, Count: count, SendBuf: send, RecvBuf: recv}, stream)
}

// Broadcast copies root's count elements to every rank (in place).
func (c *Comm) Broadcast(p *sim.Proc, buf *gpusim.Buffer, count int64, root int, stream *gpusim.Stream) (*OpHandle, error) {
	return c.issue(proxy.OpRequest{Op: collective.Broadcast, Root: root, Count: count, SendBuf: buf, RecvBuf: buf}, stream)
}

// Reduce sums count elements across ranks onto the root (in place).
func (c *Comm) Reduce(p *sim.Proc, buf *gpusim.Buffer, count int64, root int, stream *gpusim.Stream) (*OpHandle, error) {
	return c.issue(proxy.OpRequest{Op: collective.Reduce, Root: root, Count: count, SendBuf: buf, RecvBuf: buf}, stream)
}

// Send transmits count elements of buf to peer; the peer must issue a
// matching Recv (ncclSend analogue).
func (c *Comm) Send(p *sim.Proc, buf *gpusim.Buffer, count int64, peer int, stream *gpusim.Stream) (*OpHandle, error) {
	return c.issue(proxy.OpRequest{P2P: proxy.P2PSend, Peer: peer, Count: count, RecvBuf: buf}, stream)
}

// Recv receives count elements from peer into buf (ncclRecv analogue).
func (c *Comm) Recv(p *sim.Proc, buf *gpusim.Buffer, count int64, peer int, stream *gpusim.Stream) (*OpHandle, error) {
	return c.issue(proxy.OpRequest{P2P: proxy.P2PRecv, Peer: peer, Count: count, RecvBuf: buf}, stream)
}

// Destroy releases this rank's handle (ncclCommDestroy analogue). When
// every rank has destroyed its handle, the service tears the communicator
// down and removes it from the management view. All outstanding
// operations must have completed. Calling any method on a destroyed
// handle is an error.
func (c *Comm) Destroy(p *sim.Proc) error {
	if c.destroyed {
		return fmt.Errorf("mccsd: communicator %d rank %d destroyed twice", c.ID(), c.rank)
	}
	c.destroyed = true
	d := c.f.dep()
	p.Sleep(d.cfg.CmdLatency)
	return d.destroyRank(c.pc.Info.ID)
}
