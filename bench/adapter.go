package main

// adapter.go is the benchmark's only import surface: every call into
// mccs/... lives here (TestOneImportSurface enforces it), and README.md
// lists the imported symbols. Later PRs may not edit bench/, so that list
// is the API a refactor must keep, or precede with a benchmark PR.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"mccs/internal/chaos"
	"mccs/internal/cluster"
	"mccs/internal/diagnosis"
	"mccs/internal/harness"
	"mccs/internal/mccsd"
	"mccs/internal/ncclsim"
	"mccs/internal/netsim"
	"mccs/internal/policy"
	"mccs/internal/sim"
	"mccs/internal/spec"
	"mccs/internal/telemetry"
	"mccs/internal/topo"
	"mccs/internal/trace"
	"mccs/internal/transport"
)

// registryCounters maps the program's exported mccs_* counters to the
// exact per-layer counter each one feeds (summed over labels).
var registryCounters = map[string]string{
	"mccs_fabric_recomputes_total":        "netsim.recomputes",
	"mccs_fabric_flows_started_total":     "netsim.flows",
	"mccs_transport_messages_total":       "transport.messages",
	"mccs_transport_ooo_deliveries_total": "transport.ooo_deliveries",
	"mccs_proxy_steps_total":              "proxy.steps",
	"mccs_proxy_reconfigs_total":          "proxy.reconfigs",
	"mccs_proxy_barrier_phases_total":     "proxy.barrier_phases",
	"mccs_frontend_cmds_total":            "mccsd.cmds",
	"mccs_policy_applies_total":           "policy.applies",
}

// addPrometheus folds a Prometheus-text registry export into counters.
func addPrometheus(counters map[string]float64, text []byte) {
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		name, _, _ := strings.Cut(line[:sp], "{")
		metric, ok := registryCounters[name]
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(line[sp+1:], 64); err == nil {
			counters[metric] += v
		}
	}
}

// addSeries folds the last sample of a telemetry series into counters.
func addSeries(counters map[string]float64, se *telemetry.Series) {
	if se == nil || len(se.Samples) == 0 {
		return
	}
	last := se.Samples[len(se.Samples)-1]
	for i, col := range se.Cols {
		if metric, ok := registryCounters[col.Name]; ok {
			counters[metric] += se.Value(last, i)
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// runCollectives is one repeat of ar_large / ar_small: build the 4-host
// testbed under full MCCS, bootstrap one 8-rank communicator, and have
// every rank issue ops closed-loop (the next collective when the previous
// completes). Backed runs fill the send buffers with rank+1 and check
// every result.
func runCollectives(ops []collOp, backed bool, salt uint64, traced bool) (out repeatOut) {
	out.Attempted = len(ops)
	fail := func(err error) repeatOut {
		out.Err, out.Failed = err, out.Attempted
		return out
	}

	t0 := time.Now()
	cl, err := topo.BuildClos(topo.TestbedConfig())
	if err != nil {
		return fail(err)
	}
	t1 := time.Now()
	s := sim.New()
	defer s.Shutdown()
	var rec *trace.Recorder
	var reg *telemetry.Registry
	sched, events := newFNV(), 0
	if traced {
		rec = trace.NewRecorder(trace.LevelFull, trace.DefaultCapacity)
		trace.Attach(s, rec)
		reg = telemetry.NewRegistry()
		telemetry.Attach(s, reg)
		s.SetObserver(func(at sim.Time, seq uint64) {
			events++
			sched.mix(uint64(at))
			sched.mix(seq)
		})
	}
	t2 := time.Now()
	fabric := netsim.NewFabric(s, cl.Net)
	t3 := time.Now()
	cfg := ncclsim.Config(ncclsim.MCCS)
	cfg.Proxy.LabelSalt = salt
	dep := mccsd.NewDeployment(s, cl, fabric, cfg)
	t4 := time.Now()

	// Rank order as a topology-oblivious tenant launcher produces it: hosts
	// interleaved across racks (the Fig. 6 8-GPU setup).
	gpus, err := harness.SingleAppGPUs(cl, len(cl.GPUs))
	if err != nil {
		return fail(err)
	}
	n := len(gpus)
	var maxElems int64
	for _, op := range ops {
		maxElems = max(maxElems, op.Elems)
	}
	lat := make([]float64, n*len(ops))
	done := make([]sim.Time, n*len(ops))
	wrong := make([]bool, len(ops))
	errs := make([]error, n+1)
	ready, start := sim.NewLatch(n), &sim.Event{}
	var bootDone time.Time
	var simStart sim.Time
	s.Go("bench:start", func(p *sim.Proc) {
		ready.Wait(p)
		bootDone, simStart = time.Now(), p.Now()
		start.Signal(s)
	})
	for rank, gpu := range gpus {
		s.Go(fmt.Sprintf("bench:rank%d", rank), func(p *sim.Proc) {
			f := dep.Service(cl.HostOfGPU(gpu)).Frontend("bench")
			recv, err := f.MemAlloc(p, gpu, maxElems*4, backed)
			if err != nil {
				errs[rank] = err
				return
			}
			send := recv // unbacked AllReduce runs in place, as Fig. 6 does
			if backed {
				if send, err = f.MemAlloc(p, gpu, maxElems*4, true); err != nil {
					errs[rank] = err
					return
				}
				for i := range send.Data() {
					send.Data()[i] = float32(rank + 1)
				}
			}
			comm, err := f.CommInitRank(p, "bench", n, rank, gpu)
			if err != nil {
				errs[rank] = err
				return
			}
			ready.Done(s)
			start.Wait(p)
			for i, op := range ops {
				var h *mccsd.OpHandle
				if op.AllGather {
					h, err = comm.AllGather(p, send, recv, op.Elems/int64(n), nil)
				} else {
					h, err = comm.AllReduce(p, send, recv, op.Elems, nil)
				}
				if err != nil {
					errs[rank] = fmt.Errorf("rank %d op %d: %w", rank, i, err)
					return
				}
				st := h.Wait(p)
				lat[rank*len(ops)+i] = us(st.Elapsed())
				done[rank*len(ops)+i] = st.Done
				if backed && !resultOK(recv.Data()[:op.Elems], op, n) {
					wrong[i] = true
				}
			}
		})
	}
	errs[n] = s.Run()
	end := time.Now()
	if err := errors.Join(errs...); err != nil {
		return fail(err)
	}

	out.Spans = map[string]float64{
		"topo.build_ms":           ms(t1.Sub(t0)),
		"netsim.new_fabric_ms":    ms(t3.Sub(t2)),
		"mccsd.new_deployment_ms": ms(t4.Sub(t3)),
		"mccsd.bootstrap_ms":      ms(bootDone.Sub(t4)),
		"bench.run_steady_ms":     ms(end.Sub(bootDone)),
	}
	for _, w := range wrong {
		if w {
			out.Failed++
		}
	}
	out.LatUS = lat
	h := newFNV()
	last := simStart
	for _, d := range done {
		h.mix(uint64(d))
		last = max(last, d)
	}
	out.ResultHash = uint64(h)
	out.SimSeconds = last.Sub(simStart).Seconds()
	if traced {
		out.SchedHash = uint64(sched)
		out.Counters = map[string]float64{
			"sim.events":    float64(events),
			"trace.spans":   float64(rec.Len()) + float64(rec.Dropped()),
			"trace.dropped": float64(rec.Dropped()),
		}
		var buf bytes.Buffer
		if err := telemetry.WritePrometheus(&buf, reg); err != nil {
			return fail(err)
		}
		addPrometheus(out.Counters, buf.Bytes())
	}
	return out
}

// tenantInputs is the tenants_dynamic timeline.
type tenantInputs struct {
	T1, T2, T3, T4, RunFor              time.Duration
	BgStart, ReconfigAt, ReconfigRunFor time.Duration
	ReconfigBytes                       int64
}

// runTenantsDynamic is one repeat of tenants_dynamic: the Fig. 10 dynamic
// policy timeline followed by the Fig. 7 reconfiguration showcase. Only
// the showcase exposes a telemetry hook, so the traced counters cover
// that half alone.
func runTenantsDynamic(in tenantInputs, traced bool) (out repeatOut) {
	fail := func(err error) repeatOut {
		out.Err = err
		out.Attempted = max(out.Attempted, 1)
		out.Failed = out.Attempted
		return out
	}
	h := newFNV()
	dyn, err := harness.RunDynamic(harness.DynamicConfig{
		T1: in.T1, T2: in.T2, T3: in.T3, T4: in.T4, RunFor: in.RunFor,
	})
	if err != nil {
		return fail(err)
	}
	for _, app := range []spec.AppID{"A", "B", "C"} {
		for i, d := range dyn.IterTimes[app] {
			out.LatUS = append(out.LatUS, us(d))
			h.mix(uint64(dyn.IterEnds[app][i]))
		}
	}
	out.Attempted = len(out.LatUS)

	cfg := harness.DefaultReconfigConfig()
	cfg.RunFor, cfg.BgStart, cfg.ReconfigAt, cfg.Bytes = in.ReconfigRunFor, in.BgStart, in.ReconfigAt, in.ReconfigBytes
	if traced {
		cfg.TelemetryEvery = telemetry.DefaultInterval
	}
	rr, err := harness.RunReconfigShowcase(cfg)
	if err != nil {
		return fail(err)
	}
	for _, pt := range rr.Series {
		out.LatUS = append(out.LatUS, float64(cfg.Bytes)/pt.AlgBW*1e6)
		h.mix(uint64(pt.T))
	}
	out.Attempted = len(out.LatUS)
	out.SimSeconds = (in.RunFor + in.ReconfigRunFor).Seconds()
	out.ResultHash = uint64(h)
	if traced {
		out.Counters = map[string]float64{}
		addSeries(out.Counters, rr.Telemetry)
	}
	return out
}

// chaosInputs sizes chaos_observed: chaos seeds 1..Seeds on every corpus
// scenario, then seed 1 of the self-heal scenario. ChurnTrim is taken off
// the orchestrator-churn scenario's MaxCount.
type chaosInputs struct {
	Seeds     int
	ChurnTrim int64
}

// runChaosObserved is one repeat of chaos_observed: every corpus scenario
// on Seeds seeds with the diagnosis engine attached, then the self-heal
// scenario with the remediation loop closed. A failing seed fails all of
// its scripted collectives.
func runChaosObserved(in chaosInputs) (out repeatOut) {
	h := newFNV()
	c := map[string]float64{}
	var errs []error
	account := func(sc chaos.Scenario, res chaos.Result, report *diagnosis.Report, rec trace.Recording) {
		out.Attempted += sc.Ops
		if res.Failed() {
			out.Failed += sc.Ops
			errs = append(errs, res.Err)
		}
		h.mix(res.TraceHash)
		if len(res.Tail) > 0 {
			out.SimSeconds += res.Tail[len(res.Tail)-1].At.Seconds()
		}
		for i := range rec.Spans {
			if sp := &rec.Spans[i]; sp.Kind == trace.KindOp {
				out.LatUS = append(out.LatUS, us(sp.Dur()))
			}
		}
		c["sim.events"] += float64(res.Events)
		c["trace.spans"] += float64(len(rec.Spans)) + float64(rec.Dropped)
		c["trace.dropped"] += float64(rec.Dropped)
		if report != nil {
			c["diagnosis.spans"] += float64(report.Spans)
			c["diagnosis.incidents"] += float64(len(report.Incidents))
		}
	}
	for seed := uint64(1); seed <= uint64(in.Seeds); seed++ {
		for _, sc := range chaos.Scenarios() {
			if sc.Churn > 0 {
				sc.MaxCount -= in.ChurnTrim
			}
			dr := chaos.RunSeedDiagnosed(sc, seed)
			account(sc, dr.Result, dr.Report, dr.Recording)
		}
	}
	heal := chaos.SelfHeal()
	hr := chaos.RunSeedHealed(heal, 1)
	account(heal, hr.Result, hr.Doctor, hr.Recording)
	if hr.Remediation != nil {
		c["remediation.actions"] = float64(len(hr.Remediation.Actions))
	}
	addPrometheus(c, hr.Telemetry) // only the healed run exports the registry
	out.ResultHash, out.SchedHash = uint64(h), uint64(h)
	out.Counters = c
	out.Err = errors.Join(errs...)
	return out
}

// clusterInputs sizes cluster_sim.
type clusterInputs struct {
	Jobs, Iterations int
	Seeds            []int64
	ModelBytes       int64
}

// runClusterSim is one repeat of cluster_sim: the §6.5 flow-level
// simulation under each of the three strategies on every seed.
func runClusterSim(in clusterInputs) (out repeatOut) {
	h := newFNV()
	var errs []error
	for _, seed := range in.Seeds {
		for _, st := range []cluster.Strategy{cluster.StratRandomRing, cluster.StratOR, cluster.StratORFFA} {
			cfg := cluster.DefaultConfig()
			cfg.NumJobs, cfg.Iterations, cfg.Seed, cfg.Strategy, cfg.ModelBytes = in.Jobs, in.Iterations, seed, st, in.ModelBytes
			want := in.Jobs * in.Iterations
			out.Attempted += want
			res, err := cluster.Run(cfg)
			if err != nil {
				out.Failed += want
				errs = append(errs, err)
				continue
			}
			var last sim.Time
			for _, job := range res.Jobs {
				for _, d := range job.ARTimes {
					out.LatUS = append(out.LatUS, us(d))
					h.mix(uint64(d))
				}
				want -= len(job.ARTimes)
				last = max(last, job.Finished)
			}
			out.Failed += want
			out.SimSeconds += last.Seconds()
		}
	}
	out.ResultHash = uint64(h)
	out.Err = errors.Join(errs...)
	return out
}

// runProbes times single layers' public functions in isolation on fixed
// inputs. They deliberately avoid the ring/tree/HD generators, the tuner
// walkers and the harness constructor ladders, which ROADMAP items 2-3
// plan to replace.
func runProbes(quick bool) (map[string]float64, error) {
	batches, div := 11, 1
	if quick {
		batches, div = 3, 20
	}
	out := map[string]float64{}
	testbed := func() (*topo.Cluster, *sim.Scheduler, *netsim.Fabric, error) {
		cl, err := topo.BuildClos(topo.TestbedConfig())
		if err != nil {
			return nil, nil, nil, err
		}
		s := sim.New()
		return cl, s, netsim.NewFabric(s, cl.Net), nil
	}
	var probeErr error
	// drain runs s to completion and returns the host time since t0.
	drain := func(s *sim.Scheduler, t0 time.Time) time.Duration {
		if err := s.Run(); err != nil && probeErr == nil {
			probeErr = err
		}
		d := time.Since(t0)
		s.Shutdown()
		return d
	}

	out["sim.probe.timer_ns"] = probe(batches, 200000/div, func(n int) time.Duration {
		s, fn := sim.New(), func() {}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			s.After(time.Duration(i%1024), fn)
		}
		return drain(s, t0)
	})
	out["sim.probe.handoff_ns"] = probe(batches, 2*(50000/div), func(n int) time.Duration {
		s, ping, pong := sim.New(), sim.NewQueue[int](), sim.NewQueue[int]()
		t0 := time.Now()
		s.Go("ping", func(p *sim.Proc) {
			for i := 0; i < n/2; i++ {
				ping.Push(s, i)
				pong.Pop(p)
			}
		})
		s.Go("pong", func(p *sim.Proc) {
			for i := 0; i < n/2; i++ {
				pong.Push(s, ping.Pop(p))
			}
		})
		return drain(s, t0)
	})
	out["sim.probe.spawn_ns"] = probe(batches, 20000/div, func(n int) time.Duration {
		s, body := sim.New(), func(*sim.Proc) {}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			s.Go("spawn", body)
		}
		return drain(s, t0)
	})

	out["transport.probe.msg_ns"] = probe(batches, 20000/div, func(n int) time.Duration {
		cl, s, fabric, err := testbed()
		if err != nil {
			probeErr = err
			return 0
		}
		src, dst := cl.Hosts[0], cl.Hosts[len(cl.Hosts)-1] // different racks: crosses the fabric
		eng := transport.NewEngine(s, cl, fabric, topo.HostID(0), transport.DefaultConfig(cl.IntraHostBps))
		conn, err := eng.Connect("probe", src.NICs[0], dst.NICs[0], 0, 1)
		if err != nil {
			probeErr = err
			return 0
		}
		t0 := time.Now()
		s.Go("send", func(*sim.Proc) {
			for i := 0; i < n; i++ {
				conn.Send(64<<10, nil, nil)
			}
		})
		s.Go("recv", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				conn.Recv(p)
			}
		})
		return drain(s, t0)
	})

	for _, standing := range []int{64, 512} {
		name := fmt.Sprintf("netsim.probe.flowchurn_us_%d", standing)
		out[name] = probe(batches, 400/div, func(n int) time.Duration {
			cl, s, fabric, err := testbed()
			if err != nil {
				probeErr = err
				return 0
			}
			node := func(i int) netsim.NodeID { return cl.NICNode(topo.NICID(i % len(cl.NICs))) }
			for i := 0; i < standing; i++ {
				fabric.StartFlow(netsim.FlowOpts{Src: node(i), Dst: node(i + 1 + i/len(cl.NICs)%(len(cl.NICs)-1)), Label: uint64(i)})
			}
			t0 := time.Now()
			// Short flows start 50 µs apart and carry 64-83 KB, so starts
			// and completions all land on distinct instants.
			for i := 0; i < n; i++ {
				s.At(sim.Time(time.Duration(i)*50*time.Microsecond), func() {
					fabric.StartFlow(netsim.FlowOpts{Src: node(i), Dst: node(i + 3), Bytes: float64(64<<10 + 48*i), Label: uint64(i)})
				})
			}
			return drain(s, t0)
		}) / 1e3
	}

	out["mccsd.probe.deploy_ms"] = probe(batches, 20/min(div, 4), func(n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			cl, s, fabric, err := testbed()
			if err != nil {
				probeErr = err
				return 0
			}
			mccsd.NewDeployment(s, cl, fabric, ncclsim.Config(ncclsim.MCCS))
		}
		return time.Since(t0)
	}) / 1e6
	out["trace.probe.emit_ns"] = probe(batches, 1000000/div, func(n int) time.Duration {
		rec := trace.NewRecorder(trace.LevelFull, 1<<15)
		sp := trace.Span{Kind: trace.KindStep, Comm: 1, Rank: 3, Peer: 4, Bytes: 4096, Label: "AllReduce"}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			sp.Start, sp.End, sp.Seq = sim.Time(i), sim.Time(i+100), uint64(i)
			rec.Emit(sp)
		}
		return time.Since(t0)
	})
	dr := chaos.RunSeedDiagnosed(chaos.DoctorStraggler(), 3)
	if dr.Failed() {
		return nil, fmt.Errorf("diagnosis probe recording: %w", dr.Err)
	}
	out["diagnosis.probe.analyze_ns_per_span"] = probe(batches, len(dr.Recording.Spans), func(int) time.Duration {
		t0 := time.Now()
		diagnosis.Analyze(dr.Recording, nil, diagnosis.DefaultConfig())
		return time.Since(t0)
	})

	largeBatches := batches
	if quick {
		largeBatches = 1
	}
	out["netsim.probe.paths_cold_ms"] = probe(largeBatches, 1, func(int) time.Duration {
		cl, err := topo.BuildClos(topo.LargeScaleConfig())
		if err != nil {
			probeErr = err
			return 0
		}
		t0 := time.Now()
		for i := 0; i < 256; i++ {
			a, b := topo.NICID(i*3%len(cl.NICs)), topo.NICID((i*7+101)%len(cl.NICs))
			cl.PathsBetweenNICs(a, b)
		}
		return time.Since(t0)
	}) / 1e6
	cl, err := topo.BuildClos(topo.LargeScaleConfig())
	if err != nil {
		return nil, err
	}
	// 48 synthetic 16-rank communicators, rank r of communicator c on GPU
	// r*48+c: every rank on its own host, one rank-order ring each.
	comms := make([]spec.CommInfo, 48)
	for c := range comms {
		info := spec.CommInfo{ID: spec.CommID(c + 1), App: spec.AppID(fmt.Sprintf("t%d", c))}
		ch := spec.ChannelSpec{Route: spec.RouteECMP}
		for r := 0; r < 16; r++ {
			g := topo.GPUID(r*48 + c)
			info.Ranks = append(info.Ranks, spec.RankInfo{Rank: r, GPU: g, Host: cl.HostOfGPU(g), NIC: cl.NICOfGPU(g)})
			ch.Order = append(ch.Order, r)
		}
		info.Strategy.Channels = []spec.ChannelSpec{ch}
		comms[c] = info
	}
	policy.FFA(cl, comms) // warm the cluster's path cache
	out["policy.probe.ffa_ms"] = probe(largeBatches, 1, func(int) time.Duration {
		t0 := time.Now()
		policy.FFA(cl, comms)
		return time.Since(t0)
	}) / 1e6
	return out, probeErr
}
