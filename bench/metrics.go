package main

// metricDef names one reported metric. Kind says which clock or source it
// comes from: "host" is what the simulator costs on this machine, "sim" is
// what the modelled MCCS deployment achieves (deterministic for a seed),
// "count" is an exact counter.
type metricDef struct {
	Name   string
	Unit   string
	Kind   string
	Better string
	// Bound is the share of the base median by which an end-to-end metric
	// may worsen before it counts as a regression; 0 for per-layer metrics.
	Bound float64
}

// endToEnd mirrors BENCHMARK.json (TestBenchmarkJSONMatches keeps the two
// in step). op_fail_frac is not a metric here because it must be 0: it is
// the failed/attempted pair of every result line.
var endToEnd = []metricDef{
	{"ops_per_s", "ops/s", "host", "higher", 0.25},
	{"cpu_s_per_kop", "s", "host", "lower", 0.25},
	{"allocs_per_op", "count", "host", "lower", 0.03},
	{"alloc_kb_per_op", "KB", "host", "lower", 0.03},
	{"peak_rss_mb", "MB", "host", "lower", 0.25},
	{"setup_s", "s", "host", "lower", 0.25},
	{"sim_ops_per_sim_s", "ops/sim_s", "sim", "higher", 0.05},
}

// simLatency are the simulated op latencies. They are end-to-end in
// nature but reported with the per-layer metrics: they are deterministic
// for a seed, some read the same for every seed (cluster_sim's median is
// the uncontended AllReduce time), and the benchmark contract rejects an
// end-to-end time that reads the same on every run.
var simLatency = []metricDef{
	{Name: "sim_op_lat_p50_us", Unit: "sim_us", Kind: "sim", Better: "lower"},
	{Name: "sim_op_lat_p99_us", Unit: "sim_us", Kind: "sim", Better: "lower"},
}

// counterDefs are the exact counters; PerOp ones are divided by the
// repeat's ops, the others are per-repeat totals.
var counterDefs = []struct {
	Key   string
	PerOp bool
}{
	{"sim.events", true},
	{"netsim.recomputes", true},
	{"netsim.flows", true},
	{"transport.messages", true},
	{"transport.ooo_deliveries", false},
	{"proxy.steps", true},
	{"proxy.reconfigs", false},
	{"proxy.barrier_phases", false},
	{"mccsd.cmds", true},
	{"policy.applies", false},
	{"trace.spans", true},
	{"trace.dropped", false},
	{"diagnosis.spans", false},
	{"diagnosis.incidents", false},
	{"remediation.actions", false},
}

func counterMetric(key string, perOp bool) string {
	if perOp {
		return key + "_per_op"
	}
	return key
}

var spanNames = []string{
	"topo.build_ms", "netsim.new_fabric_ms", "mccsd.new_deployment_ms",
	"mccsd.bootstrap_ms", "bench.run_steady_ms",
}

var probeDefs = []metricDef{
	{Name: "sim.probe.timer_ns", Unit: "ns"},
	{Name: "sim.probe.handoff_ns", Unit: "ns"},
	{Name: "sim.probe.spawn_ns", Unit: "ns"},
	{Name: "transport.probe.msg_ns", Unit: "ns"},
	{Name: "netsim.probe.flowchurn_us_64", Unit: "us"},
	{Name: "netsim.probe.flowchurn_us_512", Unit: "us"},
	{Name: "mccsd.probe.deploy_ms", Unit: "ms"},
	{Name: "trace.probe.emit_ns", Unit: "ns"},
	{Name: "diagnosis.probe.analyze_ns_per_span", Unit: "ns"},
	{Name: "netsim.probe.paths_cold_ms", Unit: "ms"},
	{Name: "policy.probe.ffa_ms", Unit: "ms"},
}

// perLayer lists every per-layer metric in output order: the simulated
// latencies, caused CPU per layer, the runtime-category partition of the
// same samples, the exact counters, the host-time spans and the layer
// probes.
func perLayer() []metricDef {
	out := append([]metricDef(nil), simLatency...)
	for _, l := range cpuLayers {
		out = append(out, metricDef{Name: l + ".cpu_us_per_op", Unit: "us", Kind: "host", Better: "lower"})
	}
	for _, c := range categories {
		out = append(out, metricDef{Name: c + "_cpu_us_per_op", Unit: "us", Kind: "host", Better: "lower"})
	}
	for _, c := range counterDefs {
		out = append(out, metricDef{Name: counterMetric(c.Key, c.PerOp), Unit: "count", Kind: "count", Better: "lower"})
	}
	for _, s := range spanNames {
		out = append(out, metricDef{Name: s, Unit: "ms", Kind: "host", Better: "lower"})
	}
	out = append(out, metricDef{Name: "bench.trace_overhead_frac", Unit: "ratio", Kind: "host", Better: "lower"})
	for _, p := range probeDefs {
		p.Kind, p.Better = "host", "lower"
		out = append(out, p)
	}
	return out
}
