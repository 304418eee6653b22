// Package chaos is a deterministic chaos-testing harness for the MCCS
// service, in the style of FoundationDB's simulation testing: every run
// is driven by a single seed, the simulated schedule and every fault are
// derived from that seed, and a failing seed replays byte-for-byte.
//
// A run builds the paper's 4-host testbed (internal/harness), starts a
// scripted collective workload whose results are checked against the
// closed form (per-element sums for AllReduce, the inputs themselves for
// AllGather), and layers seed-derived faults
// on top: same-instant schedule permutation (sim.Picker), link flaps and
// bandwidth degradation (netsim), straggler GPUs (gpusim), delayed
// transport sends, external congestion with the remediation engine reacting,
// mid-collective reconfiguration storms through the Fig. 4
// sequence-number protocol, and strategy-autotuner passes that install
// searched strategies while collectives are in flight. After the scheduler drains, invariants are
// checked: data correctness, generation agreement (no collective executes
// with mixed ring views), and quiescence (no leaked flows or queued work).
package chaos

import (
	"fmt"
	"strings"
	"time"

	"mccs/internal/sim"
)

// Scenario parameterizes one chaos workload + fault mix. The zero value
// is not useful; start from one of the presets.
type Scenario struct {
	Name string

	// Ranks is the communicator size: 4 (one GPU per host) or 8 (both).
	Ranks int
	// Ops is the number of collectives each rank issues.
	Ops int
	// MaxCount bounds the per-op element count (drawn in [16, MaxCount]).
	MaxCount int64
	// Depth is the issue pipeline depth per rank (collectives in flight).
	Depth int

	// LinkFlaps is how many seed-scheduled capacity flaps to inject.
	LinkFlaps int
	// Stragglers is how many transient GPU slowdowns to inject.
	Stragglers int
	// SendDelays enables random per-send transport delays.
	SendDelays bool
	// Reconfigs is how many mid-run reconfigurations the storm driver
	// issues (random ring permutations with skewed per-rank delivery).
	Reconfigs int
	// Congestion starts an external strict-priority flow on a random
	// link and runs the remediation engine's link-health loop against it.
	Congestion bool
	// Autotunes is how many seed-scheduled strategy-autotuner passes run
	// against the live deployment: each searches the candidate space
	// under whatever fabric state the other faults have created and
	// installs the winner mid-collective.
	Autotunes int
	// Churn is how many orchestrator-driven tenant jobs arrive, run and
	// tear down during the run (a dedicated PRNG stream draws their
	// arrival times, sizes and traces). Every arrival and departure
	// triggers a policy recompute against the live deployment — the
	// scripted workload's communicator included — and the post-run
	// invariants additionally require that no job leaks engines, flows
	// or capacity after teardown.
	Churn int

	// Horizon is the virtual-time window faults are scheduled in. All
	// injectors are time-bounded so the simulation always drains.
	Horizon time.Duration

	// SkipSeqBarrier weakens the Fig. 4 reconfiguration protocol
	// (proxy.Config.UnsafeSkipSeqBarrier) so the sweep can demonstrate
	// that the invariants actually catch protocol bugs.
	SkipSeqBarrier bool
}

// Weakened returns a copy of the scenario with the Fig. 4 sequence-number
// barrier disabled, for bug-detection-power tests.
func (sc Scenario) Weakened() Scenario {
	sc.Name += "+skip-seq-barrier"
	sc.SkipSeqBarrier = true
	return sc
}

// LinkFlap is the link-failure scenario: capacity flaps (including full
// blackouts) on random fabric links while collectives stream.
func LinkFlap() Scenario {
	return Scenario{
		Name:  "link-flap",
		Ranks: 4, Ops: 6, MaxCount: 4096, Depth: 2,
		LinkFlaps: 3,
		Horizon:   8 * time.Millisecond,
	}
}

// Straggler is the slow-GPU scenario: transient compute slowdowns on
// random participating GPUs plus jittered transport sends, on the full
// 8-GPU testbed.
func Straggler() Scenario {
	return Scenario{
		Name:  "straggler",
		Ranks: 8, Ops: 6, MaxCount: 2048, Depth: 2,
		Stragglers: 3, SendDelays: true,
		Horizon: 8 * time.Millisecond,
	}
}

// ReconfigStorm is the control-plane scenario: repeated mid-collective
// reconfigurations with skewed per-rank delivery, external congestion,
// and the remediation engine issuing its own recovery moves concurrently.
func ReconfigStorm() Scenario {
	return Scenario{
		Name:  "reconfig-storm",
		Ranks: 4, Ops: 8, MaxCount: 4096, Depth: 3,
		Reconfigs: 4, Congestion: true, SendDelays: true,
		Horizon: 10 * time.Millisecond,
	}
}

// AutotuneChurn is the decision-plane scenario: repeated autotuner
// passes install searched strategies (ring permutations, channel counts,
// halving-doubling, tree thresholds) mid-collective while sends jitter
// and an external flow perturbs the cost model's view of the fabric.
func AutotuneChurn() Scenario {
	return Scenario{
		Name:  "autotune-churn",
		Ranks: 8, Ops: 6, MaxCount: 4096, Depth: 2,
		Autotunes: 3, SendDelays: true, Congestion: true,
		Horizon: 10 * time.Millisecond,
	}
}

// OrchestratorChurn is the lifecycle scenario: tenant jobs arrive, get
// placed, run and tear down while the scripted workload streams, with
// every arrival and departure kicking a policy recompute through the
// reconfiguration barrier. It exercises the teardown/reconfigure
// mutual exclusion and the capacity-return path under a fuzzed
// schedule and jittered sends.
func OrchestratorChurn() Scenario {
	return Scenario{
		Name:  "orchestrator-churn",
		Ranks: 4, Ops: 6, MaxCount: 2048, Depth: 2,
		Churn: 5, SendDelays: true,
		Horizon: 10 * time.Millisecond,
	}
}

// Scenarios returns the standard sweep set.
func Scenarios() []Scenario {
	return []Scenario{LinkFlap(), Straggler(), ReconfigStorm(), AutotuneChurn(), OrchestratorChurn()}
}

// DoctorStraggler is the straggler scenario re-scaled for diagnosis
// ground truth: megabyte collectives whose per-chunk kernel time is
// microseconds (the corpus scenarios' kilobyte ops cost ~2ns of GPU time
// per step, far below any measurable straggler signal), a longer script,
// and no send-delay jitter. Not part of Scenarios(): the chaos corpus
// stresses protocol invariants, this stresses the doctor's detectors.
func DoctorStraggler() Scenario {
	return Scenario{
		Name:  "doctor-straggler",
		Ranks: 4, Ops: 12, MaxCount: 1 << 18, Depth: 2,
		Stragglers: 3,
		Horizon:    12 * time.Millisecond,
	}
}

// SelfHeal is the closed-loop recovery scenario: megabyte collectives
// (so link faults are observable in flow telemetry, like
// DoctorStraggler), seed-scheduled link flaps drawn from the dedicated
// heal PRNG stream, and — via RunSeedHealed — the diagnosis engine plus
// the remediation engine attached live, so every injected fault must be
// detected, quarantined, remediated and re-admitted within the run.
// Not part of Scenarios(): the corpus stresses protocol invariants,
// this validates the detect→diagnose→recover loop.
func SelfHeal() Scenario {
	return Scenario{
		Name:  "self-heal",
		Ranks: 4, Ops: 12, MaxCount: 1 << 18, Depth: 2,
		LinkFlaps: 2,
		Horizon:   12 * time.Millisecond,
	}
}

// Clean is a fault-free control: the link-flap workload shape with no
// injectors at all. The diagnosis false-positive tests require zero
// incidents on it; it is deliberately not part of Scenarios() (nothing
// to chaos-test without faults).
func Clean() Scenario {
	return Scenario{
		Name:  "clean",
		Ranks: 4, Ops: 6, MaxCount: 4096, Depth: 2,
		Horizon: 8 * time.Millisecond,
	}
}

// TraceEntry is one scheduler event in the deterministic event trace:
// the virtual time it fired at and the event's global sequence number.
// The (At, Seq) stream is a complete fingerprint of a run's schedule.
type TraceEntry struct {
	At  sim.Time
	Seq uint64
}

// Result is the outcome of one seeded run.
type Result struct {
	Scenario string
	Seed     uint64
	// TraceHash is the FNV-1a hash of the full (At, Seq) event stream;
	// Events is its length. Equal hashes across replays of the same
	// seed certify determinism.
	TraceHash uint64
	Events    int
	// Tail holds the last events before the run ended, for failure
	// triage (the full trace is reproduced by re-running the seed).
	Tail []TraceEntry
	// DumpPath, set only on failure, is a temp file holding the run's
	// full flight-recorder dump as Chrome trace-event JSON (inspect with
	// `mccs trace` or Perfetto).
	DumpPath string
	// Faults is the injected-fault ground truth, in schedule order, the
	// remediation engine's moves last (see FaultRecord). The diagnosis
	// ground-truth tests score the doctor's incidents against these
	// windows.
	Faults []FaultRecord
	// Err is nil iff every invariant held.
	Err error
}

// Failed reports whether the run violated an invariant.
func (r Result) Failed() bool { return r.Err != nil }

// String formats the result for failure reports: everything needed to
// replay the run exactly.
func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos %s seed=%#x events=%d trace=%#x", r.Scenario, r.Seed, r.Events, r.TraceHash)
	if r.Err == nil {
		b.WriteString(" ok")
		return b.String()
	}
	fmt.Fprintf(&b, "\n  error: %v\n  trace tail (replay with RunSeed(%s, %#x)):", r.Err, r.Scenario, r.Seed)
	for _, e := range r.Tail {
		fmt.Fprintf(&b, "\n    at=%v seq=%d", time.Duration(e.At), e.Seq)
	}
	if r.DumpPath != "" {
		fmt.Fprintf(&b, "\n  flight recorder dump: %s", r.DumpPath)
	}
	return b.String()
}

// SweepResult aggregates one scenario swept over many seeds.
type SweepResult struct {
	Scenario string
	Results  []Result
}

// Failures returns the failing runs.
func (s SweepResult) Failures() []Result {
	var out []Result
	for _, r := range s.Results {
		if r.Failed() {
			out = append(out, r)
		}
	}
	return out
}

// Run sweeps a scenario over the given seeds. Failures carry the seed
// and trace tail needed to replay them exactly; use Seeds to build a
// deterministic seed range.
func Run(seeds []uint64, sc Scenario) SweepResult {
	out := SweepResult{Scenario: sc.Name}
	for _, seed := range seeds {
		out.Results = append(out.Results, RunSeed(sc, seed))
	}
	return out
}

// Seeds returns n consecutive seeds starting at start. Consecutive
// integers are fine: each run splits its seed into independent PRNG
// streams with distinct odd multipliers.
func Seeds(start uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = start + uint64(i)
	}
	return out
}

// tracer folds the scheduler's event stream into an FNV-1a fingerprint
// plus a bounded tail for failure reports. The tail is a ring: event i
// lands in tail[i%tailLen].
type tracer struct {
	hash uint64
	n    int
	tail [tailLen]TraceEntry
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211

	tailLen = 24
)

func newTracer() *tracer { return &tracer{hash: fnvOffset} }

func (t *tracer) observe(at sim.Time, seq uint64, _ sim.EventKind, _ sim.Handler) {
	t.mix(uint64(at))
	t.mix(seq)
	t.tail[t.n%tailLen] = TraceEntry{At: at, Seq: seq}
	t.n++
}

// lastEvents returns the tail in event order (nil before any event).
func (t *tracer) lastEvents() []TraceEntry {
	k := min(t.n, tailLen)
	if k == 0 {
		return nil
	}
	out := make([]TraceEntry, k)
	for i := range out {
		out[i] = t.tail[(t.n-k+i)%tailLen]
	}
	return out
}

func (t *tracer) mix(v uint64) {
	for i := 0; i < 8; i++ {
		t.hash ^= v & 0xff
		t.hash *= fnvPrime
		v >>= 8
	}
}
