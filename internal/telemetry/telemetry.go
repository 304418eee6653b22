// Package telemetry is the live metrics plane of the MCCS service: the
// always-on counterpart to the post-hoc flight recorder (internal/trace).
//
// A Registry holds counters, gauges and fixed-bucket histograms, labeled
// by tenant / communicator / host / link. Instrumented layers look their
// handles up once at construction time (where allocation is fine) and
// then emit through the handle on the hot path, which is a nil-safe field
// update — zero allocations, a branch and a store when telemetry is off.
//
// A Sampler (sampler.go) snapshots the registry into a sim-time series by
// piggybacking on the scheduler's end-of-instant hook, so enabling
// telemetry adds no scheduler events and therefore cannot perturb the
// simulated schedule: trace fingerprints and chaos-corpus hashes are
// identical with telemetry on or off. Exporters (export.go) emit
// Prometheus text format and a JSONL time-series, both byte-deterministic
// for a fixed seed. SLO accounting (slo.go) compares each tenant's
// achieved fabric share against its fair-share entitlement per sampling
// window and records violation events.
//
// Conventions:
//
//   - Metric names are prometheus-style snake_case with an mccs_ prefix
//     and a _total suffix on counters (mccs_proxy_ops_total).
//   - Label keys are tenant, comm, host, link, policy, phase.
//   - Every metric declares a unit ("bytes", "bytes/s", "seconds",
//     "ratio", "ops", ...) so exports are self-describing.
package telemetry

import (
	"slices"
	"sort"
	"strings"

	"mccs/internal/sim"
)

// Kind classifies a metric.
type Kind uint8

const (
	// KindCounter is a monotonically non-decreasing int64.
	KindCounter Kind = iota
	// KindGauge is an instantaneous float64.
	KindGauge
	// KindHistogram is a fixed-bucket cumulative histogram.
	KindHistogram
)

var kindNames = [...]string{"counter", "gauge", "histogram"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "?"
}

// Label is one key=value metric dimension.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(k, v string) Label { return Label{Key: k, Value: v} }

// Counter is a monotonic counter handle. All methods are safe on a nil
// receiver, which is what makes disabled telemetry free at emit sites.
type Counter struct {
	v int64
}

// Inc adds 1.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Add adds n (negative n is ignored: counters are monotonic).
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v += n
	}
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is an instantaneous-value handle; nil-safe like Counter.
type Gauge struct {
	v float64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.v = v
	}
}

// Add shifts the value by d.
func (g *Gauge) Add(d float64) {
	if g != nil {
		g.v += d
	}
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Histogram is a fixed-bucket cumulative histogram handle; nil-safe.
// Buckets are upper bounds in ascending order; observations above the
// last bound land only in the implicit +Inf bucket (count).
type Histogram struct {
	bounds []float64 // ascending upper bounds
	counts []uint64  // per-bound cumulative-at-export, non-cumulative here
	sum    float64
	n      uint64
}

// Observe records one value. Zero-alloc: a linear scan over the fixed
// bounds (emit-path histograms have ~a dozen buckets).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.sum += v
	h.n++
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i]++
			return
		}
	}
}

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.n
}

// DefBuckets is the default latency bucket ladder (seconds): 10µs … 1s.
var DefBuckets = []float64{
	10e-6, 20e-6, 50e-6, 100e-6, 200e-6, 500e-6,
	1e-3, 2e-3, 5e-3, 10e-3, 20e-3, 50e-3, 100e-3, 200e-3, 500e-3, 1,
}

// LinkInfo names one fabric link for SLO accounting and exports.
type LinkInfo struct {
	ID     int32
	Name   string
	CapBps float64
}

// entry is one registered metric.
type entry struct {
	name   string
	unit   string
	labels []Label // sorted by key
	kind   Kind
	c      *Counter
	g      *Gauge
	pull   func() float64 // a GaugeFunc's source, read instead of g
	h      *Histogram
}

// gauge returns a KindGauge entry's current value.
func (e *entry) gauge() float64 {
	if e.pull != nil {
		return e.pull()
	}
	return e.g.v
}

// Registry interns metrics and hands out emit handles. It is a sim-side
// object: like everything else in the simulation it is touched only from
// scheduler context and needs no locks.
type Registry struct {
	entries []*entry
	byKey   map[string]*entry

	// collectors are pull hooks (fabric link gauges, SLO accounting)
	// invoked by the sampler at every end-of-instant pass; collectorRuns
	// counts the invocations that found something to publish.
	collectors    []func(now sim.Time) bool
	collectorRuns int64

	// tenants interns the tenant names in first-noted order;
	// commTenant[comm] is 1 + the index of the communicator's tenant in it,
	// 0 while unknown. commVersion moves on every change of the table.
	tenants     []string
	commTenant  []int32
	commVersion int
	links       []LinkInfo

	// SLO is the per-tenant violation tracker fed by the fabric
	// collector; always non-nil.
	SLO *SLOTracker
}

// NewRegistry returns an empty registry with a default-config SLO
// tracker.
func NewRegistry() *Registry {
	return &Registry{
		byKey: make(map[string]*entry),
		SLO:   newSLOTracker(),
	}
}

// Attach installs r as the scheduler's metrics sink. Install it before
// building the fabric and the deployment: instrumented layers cache
// their handles at construction time.
func Attach(s *sim.Scheduler, r *Registry) {
	s.SetMetricsSink(r)
	if r != nil {
		r.SLO.reg = r
	}
}

// Of returns the registry attached to s, or nil. The nil result is
// usable directly: handle lookups on a nil registry return nil handles,
// and nil handles no-op.
func Of(s *sim.Scheduler) *Registry {
	r, _ := s.MetricsSink().(*Registry)
	return r
}

// key builds the canonical intern key. Registration-time only; the emit
// path never calls it.
func key(name string, labels []Label) string {
	var b strings.Builder
	b.WriteString(name)
	for _, l := range labels {
		b.WriteByte('\xff')
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String()
}

func sortLabels(labels []Label) []Label {
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	return ls
}

func (r *Registry) intern(name, unit string, kind Kind, labels []Label) *entry {
	ls := sortLabels(labels)
	k := key(name, ls)
	if e, ok := r.byKey[k]; ok {
		return e
	}
	e := &entry{name: name, unit: unit, labels: ls, kind: kind}
	r.byKey[k] = e
	r.entries = append(r.entries, e)
	return e
}

// Counter interns and returns the counter (name, labels). Repeated calls
// with the same identity return the same handle. Safe on a nil registry
// (returns a nil, no-op handle).
func (r *Registry) Counter(name, unit string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	e := r.intern(name, unit, KindCounter, labels)
	if e.c == nil {
		e.c = &Counter{}
	}
	return e.c
}

// Gauge interns and returns the gauge (name, labels); nil-safe.
func (r *Registry) Gauge(name, unit string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	e := r.intern(name, unit, KindGauge, labels)
	if e.g == nil {
		e.g = &Gauge{}
	}
	return e.g
}

// GaugeFunc interns the gauge (name, labels) as a pull gauge: it has no
// handle, its value is fn's result whenever the registry is read (a sampler
// capture, an export). For state some layer already holds — a fabric link
// rate — this costs nothing between reads, where a Set on every change
// would. fn runs in scheduler context and must not mutate anything a
// simulation outcome depends on; nil-safe.
func (r *Registry) GaugeFunc(name, unit string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.intern(name, unit, KindGauge, labels).pull = fn
}

// Histogram interns and returns the histogram (name, labels) with the
// given bucket upper bounds (DefBuckets when nil); nil-safe. Buckets are
// fixed at first registration.
func (r *Registry) Histogram(name, unit string, buckets []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	e := r.intern(name, unit, KindHistogram, labels)
	if e.h == nil {
		if buckets == nil {
			buckets = DefBuckets
		}
		e.h = &Histogram{
			bounds: append([]float64(nil), buckets...),
			counts: make([]uint64, len(buckets)),
		}
	}
	return e.h
}

// AddCollector registers a pull hook (gauges that are cheaper to poll
// than to push); nil-safe. The sampler runs the collectors at every
// end-of-instant pass — what they publish is per instant: the SLO rule
// dates a violation at the first instant its predicate holds — but reads
// the registry far less often, so fn must return false at once when
// nothing it reads has changed since its last run, and true when it
// published.
func (r *Registry) AddCollector(fn func(now sim.Time) bool) {
	if r == nil {
		return
	}
	r.collectors = append(r.collectors, fn)
}

func (r *Registry) collect(now sim.Time) {
	for _, fn := range r.collectors {
		if fn(now) {
			r.collectorRuns++
		}
	}
}

// CollectorRuns returns how many collector invocations published
// something — the observer's own cost, as a count.
func (r *Registry) CollectorRuns() int64 {
	if r == nil {
		return 0
	}
	return r.collectorRuns
}

// NoteComm records which tenant (application) owns a communicator, the
// side-band the fabric collector uses to attribute flows; nil-safe. An
// empty tenant forgets the communicator.
func (r *Registry) NoteComm(comm int32, tenant string) {
	if r == nil || comm < 0 {
		return
	}
	t := int32(0)
	if tenant != "" {
		i := slices.Index(r.tenants, tenant)
		if i < 0 {
			i = len(r.tenants)
			r.tenants = append(r.tenants, tenant)
		}
		t = int32(i) + 1
	}
	for int(comm) >= len(r.commTenant) {
		r.commTenant = append(r.commTenant, 0)
	}
	if r.commTenant[comm] != t {
		r.commTenant[comm] = t
		r.commVersion++
	}
}

// TenantIndex resolves a communicator to the dense index of its owning
// tenant (first-noted order, see TenantName), -1 if unknown.
func (r *Registry) TenantIndex(comm int32) int {
	if r == nil || comm < 0 || int(comm) >= len(r.commTenant) {
		return -1
	}
	return int(r.commTenant[comm]) - 1
}

// TenantName returns the name behind a TenantIndex result.
func (r *Registry) TenantName(i int) string { return r.tenants[i] }

// CommVersion returns a number that moves whenever NoteComm changes what
// TenantIndex answers.
func (r *Registry) CommVersion() int {
	if r == nil {
		return 0
	}
	return r.commVersion
}

// SetLinks registers the fabric link identities used by exports and SLO
// accounting; nil-safe.
func (r *Registry) SetLinks(links []LinkInfo) {
	if r == nil {
		return
	}
	r.links = links
}

// Links returns the registered fabric link identities.
func (r *Registry) Links() []LinkInfo {
	if r == nil {
		return nil
	}
	return r.links
}

// Column is one flattened value slot in a snapshot. Counters and gauges
// contribute one column; a histogram with k bounds contributes k bucket
// columns (cumulative counts, label le=bound) plus _sum and _count.
type Column struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit,omitempty"`
	Kind   string  `json:"kind"`
	Labels []Label `json:"labels,omitempty"`
}

// readInto appends the current value of every column to dst, in
// registration order (the sampler's hot-ish path: no allocation when dst
// has capacity).
func (r *Registry) readInto(dst []float64) []float64 {
	for _, e := range r.entries {
		switch e.kind {
		case KindCounter:
			dst = append(dst, float64(e.c.v))
		case KindGauge:
			dst = append(dst, e.gauge())
		case KindHistogram:
			cum := uint64(0)
			for _, c := range e.h.counts {
				cum += c
				dst = append(dst, float64(cum))
			}
			dst = append(dst, e.h.sum)
			dst = append(dst, float64(e.h.n))
		}
	}
	return dst
}

// ColumnKinds appends the kind of every column to dst, in readInto's
// layout: a histogram's bucket, _sum and _count columns are all
// KindHistogram. Unlike Schema it builds no name or label.
func (r *Registry) ColumnKinds(dst []Kind) []Kind {
	for _, e := range r.entries {
		n := 1
		if e.kind == KindHistogram {
			n = len(e.h.counts) + 2
		}
		for range n {
			dst = append(dst, e.kind)
		}
	}
	return dst
}

// Schema returns the column descriptors in registration order, matching
// readInto's layout.
func (r *Registry) Schema() []Column {
	var cols []Column
	for _, e := range r.entries {
		switch e.kind {
		case KindHistogram:
			for _, b := range e.h.bounds {
				ls := append(append([]Label(nil), e.labels...), L("le", formatFloat(b)))
				cols = append(cols, Column{Name: e.name + "_bucket", Unit: "observations", Kind: "histogram", Labels: ls})
			}
			cols = append(cols, Column{Name: e.name + "_sum", Unit: e.unit, Kind: "histogram", Labels: e.labels})
			cols = append(cols, Column{Name: e.name + "_count", Unit: "observations", Kind: "histogram", Labels: e.labels})
		default:
			cols = append(cols, Column{Name: e.name, Unit: e.unit, Kind: e.kind.String(), Labels: e.labels})
		}
	}
	return cols
}
