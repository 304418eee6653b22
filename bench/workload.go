package main

import (
	"math"
	"math/rand"
	"time"
)

// repeatOut is what one repeat of a workload hands back to the measuring
// loop. Everything in it except Spans is simulated or counted, so it must
// be identical on every repeat of the same inputs.
type repeatOut struct {
	// Attempted and Failed count ops in the workload's op unit.
	Attempted, Failed int
	// SimSeconds is the simulated time the ops took.
	SimSeconds float64
	// LatUS is the simulated duration of every op unit, in µs.
	LatUS []float64
	// ResultHash fingerprints the simulated results (completion times);
	// SchedHash fingerprints the scheduler's (at, seq) event stream and is
	// 0 where the driver does not expose it.
	ResultHash, SchedHash uint64
	// Spans are host-time spans in ms around the benchmark's own calls.
	Spans map[string]float64
	// Counters are exact per-repeat totals, keyed by per-layer metric name
	// without the _per_op suffix; a missing key means "not exposed".
	Counters map[string]float64
	// Err is the first driver or shim error, nil when none.
	Err error
}

// workload is one named input set. prepare generates the inputs from the
// seed — the program under test only ever sees those — and returns the
// function that runs one repeat on them. size scales the op count: 1 is
// the committed size, setup passes and the smoke test use fractions.
type workload struct {
	Name   string
	OpUnit string
	// prepare's result runs one repeat; traced turns the observers on.
	prepare func(seed uint64, size float64) func(traced bool) repeatOut
}

// collOp is one collective of the ar_* workloads. Elems is the output
// element count (float32).
type collOp struct {
	AllGather bool
	Elems     int64
}

// scaled is n at the given size, but at least atLeast.
func scaled(n int, size float64, atLeast int) int {
	return max(int(math.Round(float64(n)*size)), atLeast)
}

var workloads = []workload{
	{
		Name: "ar_large", OpUnit: "collective",
		prepare: func(seed uint64, size float64) func(bool) repeatOut {
			// The Fig. 6 headline cell. Sizes are jittered below 128 MB by
			// up to 1.6 % so no two seeds replay the same byte counts;
			// the slice count per step stays the same.
			rng := rand.New(rand.NewSource(int64(seed)))
			ops := make([]collOp, scaled(300, size, 3))
			for i := range ops {
				ops[i].Elems = (128<<20)/4 - 16384*rng.Int63n(32)
			}
			return func(traced bool) repeatOut { return runCollectives(ops, false, seed, traced) }
		},
	},
	{
		Name: "ar_small", OpUnit: "collective",
		prepare: func(seed uint64, size float64) func(bool) repeatOut {
			rng := rand.New(rand.NewSource(int64(seed)))
			ops := make([]collOp, scaled(2000, size, 4))
			for i := range ops {
				// Multiples of 8 elements so AllGather divides by the 8 ranks.
				ops[i] = collOp{AllGather: i%2 == 1, Elems: (32<<10)/4 - 8*rng.Int63n(64)}
			}
			return func(traced bool) repeatOut { return runCollectives(ops, true, seed, traced) }
		},
	},
	{
		Name: "tenants_dynamic", OpUnit: "tenant iteration",
		prepare: func(seed uint64, size float64) func(bool) repeatOut {
			// Arrival and policy instants are drawn within +-25 ms of the
			// nominal timeline, so tenants desynchronise differently per seed;
			// the showcase's AllReduce is jittered below 128 MB like ar_large's.
			rng := rand.New(rand.NewSource(int64(seed)))
			at := func(sec float64) time.Duration {
				d := time.Duration(sec * size * float64(time.Second))
				return d + time.Duration((rng.Float64()-0.5)*0.05*size*float64(time.Second))
			}
			in := tenantInputs{
				T1: at(3), T2: at(6), T3: at(9), T4: at(12),
				RunFor:  time.Duration(15 * size * float64(time.Second)),
				BgStart: at(2), ReconfigAt: time.Duration(4 * size * float64(time.Second)),
				ReconfigRunFor: time.Duration(6 * size * float64(time.Second)),
				ReconfigBytes:  128<<20 - 65536*rng.Int63n(32),
			}
			return func(traced bool) repeatOut { return runTenantsDynamic(in, traced) }
		},
	},
	{
		Name: "chaos_observed", OpUnit: "scripted collective",
		prepare: func(seed uint64, size float64) func(bool) repeatOut {
			// Half the issue's 16+2 chaos seeds: every chaos run leaves its
			// environment (about 6 MB live) reachable from parked daemon
			// goroutines, so the process grows with every one it runs.
			// The chaos seeds are a fixed corpus: redrawing fault plans per
			// run moves the bytes allocated per op by 13 % (one self-heal
			// run allocates 200-420 MB depending on its chaos seed). --seed
			// only trims the churn scenario's largest element count, which
			// redraws its kilobyte op sizes: allocations move by 0.1 %.
			in := chaosInputs{Seeds: scaled(8, size, 1), ChurnTrim: rand.New(rand.NewSource(int64(seed))).Int63n(64)}
			return func(bool) repeatOut { return runChaosObserved(in) }
		},
	},
	{
		Name: "cluster_sim", OpUnit: "job AllReduce iteration",
		prepare: func(seed uint64, size float64) func(bool) repeatOut {
			// Cluster seeds 1 and 2 are fixed for the same reason as the chaos
			// corpus: a redrawn arrival process moves allocations per op by
			// 13 % and the simulated makespan by 20 %. --seed jitters the
			// model size below 100 MB by up to 2 %.
			rng := rand.New(rand.NewSource(int64(seed)))
			in := clusterInputs{
				Jobs: scaled(50, size, 2), Iterations: 10, Seeds: []int64{1, 2},
				ModelBytes: 100<<20 - 65536*rng.Int63n(32),
			}
			if size < 0.1 {
				in.Iterations, in.Seeds = 3, in.Seeds[:1]
			}
			return func(bool) repeatOut { return runClusterSim(in) }
		},
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
