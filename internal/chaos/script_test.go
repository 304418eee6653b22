package chaos

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mccs/internal/collective"
	"mccs/internal/collectivetest"
	"mccs/internal/freelist"
)

// buildScript draws a whole script the way a run's checker draws it, op by
// op with buildOp over tables from store, for TestScriptMatchesReference,
// TestBuildScriptAllocations and TestScriptFromDirtyStore.
func buildScript(sc Scenario, rng *rand.Rand, store *freelist.List[uint8]) []opSpec {
	ops := make([]opSpec, sc.Ops)
	for i := range ops {
		ops[i] = buildOp(sc, rng, store)
	}
	return ops
}

// refOpSpec and referenceScript are the script as it was built before the
// closed-form check: float32 input tables drawn with rng.Intn(8) and the
// expected output computed by lowering the op onto a ring and running it
// through collectivetest.Execute. They are kept here, unchanged apart from
// their names, as the differential oracle for buildScript.
type refOpSpec struct {
	op       collective.Op
	count    int64
	inputs   [][]float32
	expected []float32
}

func referenceScript(sc Scenario, rng *rand.Rand) ([]refOpSpec, error) {
	ring, err := collectivetest.NewRing(identity(sc.Ranks))
	if err != nil {
		return nil, err
	}
	ops := make([]refOpSpec, sc.Ops)
	for i := range ops {
		op := collective.AllReduce
		if rng.Intn(2) == 1 {
			op = collective.AllGather
		}
		count := 16 + rng.Int63n(sc.MaxCount-15)
		inputs := make([][]float32, sc.Ranks)
		for r := range inputs {
			in := make([]float32, count)
			for j := range in {
				in[j] = float32(rng.Intn(8))
			}
			inputs[r] = in
		}
		progs := collectivetest.LowerAll(collective.AlgoRing, op, []*collective.Ring{ring}, 0, count)
		expected, err := collectivetest.Execute(op, progs, inputs)
		if err != nil {
			return nil, err
		}
		for r := 1; r < len(expected); r++ {
			if !slices.Equal(expected[r], expected[0]) {
				return nil, fmt.Errorf("chaos: %v reference of rank %d differs from rank 0's", op, r)
			}
		}
		ops[i] = refOpSpec{op: op, count: count, inputs: inputs, expected: expected[0]}
	}
	return ops, nil
}

func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// scriptShapes returns Scenarios(), DoctorStraggler(), SelfHeal() and
// Clean(), one per distinct script shape: a script depends on nothing but
// the scenario's Ranks, Ops and MaxCount and the stream, so link-flap
// stands for clean and doctor-straggler for self-heal.
func scriptShapes() []Scenario {
	type shape struct {
		ranks, ops int
		maxCount   int64
	}
	seen := map[shape]bool{}
	var out []Scenario
	for _, sc := range append(Scenarios(), DoctorStraggler(), SelfHeal(), Clean()) {
		if sh := (shape{sc.Ranks, sc.Ops, sc.MaxCount}); !seen[sh] {
			seen[sh] = true
			out = append(out, sc)
		}
	}
	return out
}

// wrkStream is runSeed's workload stream for a seed.
func wrkStream(seed uint64) *rand.Rand { return randStream(seed, 0x9e3779b97f4a7c15, 1) }

// TestScriptMatchesReference is the differential proof that the byte
// script is the float32 script it replaced: on seeds 1–20 of every
// scenario, the same ops and counts, element-for-element equal inputs, a
// closed-form expectation equal to what collectivetest.Execute computes, and
// the workload stream left at the same position (so every later draw,
// and with it every schedule hash, is unchanged).
func TestScriptMatchesReference(t *testing.T) {
	t.Parallel()
	for _, seed := range Seeds(1, 20) {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			for _, sc := range scriptShapes() {
				refRng, rng := wrkStream(seed), wrkStream(seed)
				ref, err := referenceScript(sc, refRng)
				if err != nil {
					t.Fatalf("%s: reference: %v", sc.Name, err)
				}
				got := buildScript(sc, rng, nil)
				if len(got) != len(ref) {
					t.Fatalf("%s: %d ops, reference has %d", sc.Name, len(got), len(ref))
				}
				for i, r := range ref {
					o := got[i]
					if o.op != r.op || o.count != r.count {
						t.Fatalf("%s op %d: %v count %d, reference %v count %d", sc.Name, i, o.op, o.count, r.op, r.count)
					}
					for rank, in := range r.inputs {
						if err := checkData(fmt.Sprintf("%s op %d rank %d: reference input", sc.Name, i, rank), in, o.rankIn(rank)); err != nil {
							t.Fatalf("%v (the byte script's)", err)
						}
					}
					want := o.out()
					if len(want) != len(r.expected) {
						t.Fatalf("%s op %d: closed form has %d elements, Execute %d", sc.Name, i, len(want), len(r.expected))
					}
					if err := checkData(fmt.Sprintf("%s op %d: Execute output", sc.Name, i), r.expected, want); err != nil {
						t.Fatalf("%v (the closed form's)", err)
					}
				}
				if a, b := rng.Int63(), refRng.Int63(); a != b {
					t.Fatalf("%s: next workload draw %#x, reference %#x: the stream was consumed differently", sc.Name, a, b)
				}
			}
		})
	}
}

// TestBuildScriptAllocations pins what a script costs. Cold (a nil store)
// it is the op table, one input table per op and one sum table per
// AllReduce; warm (the store holding the tables of the previous build of
// the same script, as a run's teardown leaves it for the next run) it is
// the op table alone. AllocsPerRun counts the whole process, so it
// averages over a few runs.
func TestBuildScriptAllocations(t *testing.T) {
	for _, sc := range scriptShapes() {
		rng := rand.New(rand.NewSource(1))
		cold := 1
		for _, o := range buildScript(sc, rng, nil) {
			cold++
			if o.op == collective.AllReduce {
				cold++
			}
		}
		if got := testing.AllocsPerRun(5, func() {
			rng.Seed(1)
			buildScript(sc, rng, nil)
		}); got != float64(cold) {
			t.Errorf("%s: a cold buildScript allocates %v times, want %d", sc.Name, got, cold)
		}
		var store freelist.List[uint8]
		if got := testing.AllocsPerRun(5, func() {
			rng.Seed(1)
			releaseOps(buildScript(sc, rng, &store), &store)
		}); got != 1 {
			t.Errorf("%s: a warm buildScript allocates %v times, want 1 (cold: %d)", sc.Name, got, cold)
		}
		t.Logf("%s: %d allocations cold, 1 warm", sc.Name, cold)
	}
}

// TestScriptFromDirtyStore: a script built over recycled tables is the
// script built over fresh ones. The store is seeded with the tables of the
// same script scribbled over (so every table the second build takes holds
// garbage, its sums included), and every table of the second build must
// come from it: an input table not drawn over in full, or a sum table not
// cleared before it accumulates, shows as a differing element.
func TestScriptFromDirtyStore(t *testing.T) {
	for _, sc := range scriptShapes() {
		for _, seed := range Seeds(1, 5) {
			var store freelist.List[uint8]
			dirty := buildScript(sc, wrkStream(seed), nil)
			recycled := map[*uint8]bool{}
			for _, o := range dirty {
				for _, tab := range [][]uint8{o.in, o.sum} {
					for j := range tab {
						tab[j] = uint8(0xa5 ^ j)
					}
					if len(tab) > 0 {
						recycled[&tab[0]] = true
					}
				}
			}
			releaseOps(dirty, &store)
			want := buildScript(sc, wrkStream(seed), nil)
			got := buildScript(sc, wrkStream(seed), &store)
			for i, w := range want {
				g := got[i]
				if g.op != w.op || g.count != w.count {
					t.Fatalf("%s seed %d op %d: %v count %d, fresh %v count %d", sc.Name, seed, i, g.op, g.count, w.op, w.count)
				}
				if !recycled[&g.in[0]] || (g.sum != nil && !recycled[&g.sum[0]]) {
					t.Fatalf("%s seed %d op %d: a table did not come from the store", sc.Name, seed, i)
				}
				if !slices.Equal(g.in, w.in) || !slices.Equal(g.sum, w.sum) {
					t.Fatalf("%s seed %d op %d (%v): the recycled tables differ from the fresh ones", sc.Name, seed, i, g.op)
				}
			}
		}
	}
}
