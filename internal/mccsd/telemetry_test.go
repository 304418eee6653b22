package mccsd

import (
	"reflect"
	"testing"
	"time"

	"mccs/internal/netsim"
	"mccs/internal/sim"
	"mccs/internal/telemetry"
	"mccs/internal/topo"
	"mccs/internal/trace"
)

// scriptedContention is a five-millisecond run, sampled every millisecond,
// whose every instant is scripted:
//
//	0.2 ms  comm 1 starts an endless flow; an external fixed-rate flow
//	        takes 80 % of the same NIC links                (allocation moves)
//	0.5 ms  comm 1 is noted as tenant A's      (tenant table moves, allocation
//	        does not: the SLO predicate first holds mid-window)
//	0.6, 0.7, 0.8 ms  nothing changes
//	1.7 ms  nothing changes             (first instant of window 1)
//	3.0 ms  nothing changes             (on a boundary; window 2 saw no instant)
//	3.4 ms  the external flow is canceled                   (allocation moves)
//	4.2 ms  nothing changes             (first instant of window 4)
//
// It returns what the observers did, and the number of links comm 1's flow
// crosses.
func scriptedContention(t *testing.T) (*telemetry.Registry, *telemetry.Sampler, *fabricCollector, int) {
	t.Helper()
	cluster, err := topo.BuildClos(topo.TestbedConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New()
	t.Cleanup(s.Shutdown)
	fb := netsim.NewFabric(s, cluster.Net)
	d := NewDeployment(s, cluster, fb, Config{})
	// The registry goes on after the deployment is built, so that the test
	// instruments it itself and keeps the collector: the registry then
	// holds the fabric collector's families and nothing else.
	reg := telemetry.NewRegistry()
	telemetry.Attach(s, reg)
	c := d.instrumentTelemetry(reg)
	sm := telemetry.StartSampler(s, reg, time.Millisecond)

	src := cluster.NICNode(cluster.NICOfGPU(cluster.Hosts[0].GPUs[0]))
	dst := cluster.NICNode(cluster.NICOfGPU(cluster.Hosts[len(cluster.Hosts)-1].GPUs[0]))
	route := cluster.Net.PathsBetween(src, dst)[0]
	nicBps := cluster.Net.Link(route[0]).Capacity
	at := func(us int, fn func()) { s.At(sim.Time(time.Duration(us)*time.Microsecond), fn) }
	var external *netsim.Flow
	at(200, func() {
		fb.StartFlow(netsim.FlowOpts{Src: src, Dst: dst, Tag: trace.FlowTag{Comm: 1}})
		external = fb.StartFlow(netsim.FlowOpts{Src: src, Dst: dst, FixedRate: 0.8 * nicBps, External: true})
	})
	at(500, func() { reg.NoteComm(1, "A") })
	for _, us := range []int{600, 700, 800, 1700, 3000, 4200} {
		at(us, func() {})
	}
	at(3400, func() { fb.CancelFlow(external) })
	if err := s.RunUntil(sim.Time(5 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	return reg, sm, c, len(route)
}

// The observers cost what they record. On the scripted run the collector
// works at seven of the ten instants — the first pass, the two allocation
// changes, the tenant-table change and the first instant of windows 1, 3
// and 4 — and the sampler reads the registry six times for its five
// samples: at 0 (a boundary), at 0.8, 1.7, 3.4 and 4.2 ms (each the last
// instant before a boundary) and at 3.0 ms (a boundary). A capture is
// three gauges per link plus the flow count until, at 0.5 ms, tenant A's
// gauge on every link of its route and its violation counter join them.
func TestSamplerCollectsOnChange(t *testing.T) {
	reg, sm, c, hops := scriptedContention(t)
	if got := reg.CollectorRuns(); got != 7 {
		t.Errorf("collector ran %d times, want 7", got)
	}
	if got := len(sm.Samples()); got != 5 {
		t.Errorf("%d samples, want 5", got)
	}
	w0 := int64(3*c.d.Cluster.Net.NumLinks() + 1)
	w1 := w0 + int64(hops) + 1
	if got, want := sm.ColumnsCopied(), w0+5*w1; got != want {
		t.Errorf("captures read %d columns, want %d (one of %d, five of %d)", got, want, w0, w1)
	}

	// Under an unchanged allocation a pass costs three comparisons; when
	// the allocation did move, the walk reuses its scratch.
	now := c.d.S.Now()
	if n := testing.AllocsPerRun(100, func() {
		if c.collect(now) {
			t.Fatal("collect found something to publish although nothing moved")
		}
	}); n != 0 {
		t.Errorf("unchanged-epoch collect allocates %.1f times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		c.attribute()
		c.observe(now)
	}); n != 0 {
		t.Errorf("steady-state attribution allocates %.1f times, want 0", n)
	}
}

// The SLO rule dates a violation at the first instant within a window
// where the predicate holds, whatever made it hold. Here that is a
// tenant-table change under an unchanged allocation (0.5 ms), then the
// first instant of each later window that has one (1.7 ms; 3.0 ms, on the
// boundary; window 2 has none), until the allocation changes and the
// predicate stops holding (3.4 ms). The list is the one the per-instant
// collector of before PR 21 recorded on this script.
func TestSLOViolationInstantsSurviveChangeDrivenCollection(t *testing.T) {
	reg, _, _, _ := scriptedContention(t)
	var want []telemetry.Violation
	for _, us := range []int{500, 1700, 3000} {
		want = append(want, telemetry.Violation{
			T: sim.Time(time.Duration(us) * time.Microsecond), Window: time.Millisecond,
			Tenant: "A", Link: 4, LinkName: "h0-0-nic0->leaf0", // the source NIC's uplink
			AchievedBps: 1.25e9, EntitledBps: 6.25e9, DeficitBps: 5e9,
		})
	}
	if got := reg.SLO.Violations(); !reflect.DeepEqual(got, want) {
		t.Errorf("violations:\n got %+v\nwant %+v", got, want)
	}
}
