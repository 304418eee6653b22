package collective_test

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	. "mccs/internal/collective"
	"mccs/internal/collectivetest"
	"mccs/internal/spec"
)

// Differential correctness harness over the schedule IR: every lowering
// — ring (all five ops, any channel split), binomial tree, halving-
// doubling — is run through the one Execute and held to the sequential
// Oracle with exact bit equality, and its programs are checked against
// the structural invariants the proxy relies on. Inputs are small
// integers, whose float32 sums are exact in any reduction order, so
// "bits differ" always means "wrong schedule", never rounding.

// lowering is one point of the space the harness covers.
type lowering struct {
	algo  Algo
	op    Op
	n     int
	root  int
	count int
	nch   int
	seed  int64 // ring orders and inputs
}

// algoOps lists the ops each family has a lowering for.
var algoOps = map[Algo][]Op{
	AlgoRing: {AllReduce, AllGather, ReduceScatter, Broadcast, Reduce},
	AlgoTree: {AllReduce, Broadcast, Reduce},
	AlgoHD:   {AllReduce},
}

// normalize maps arbitrary fuzz/quick-check bytes onto a valid lowering.
func normalize(algo, op, n, root uint8, count uint16, nch uint8, seed int64) lowering {
	c := lowering{algo: Algo(algo % 3), n: int(n%21) + 1, count: int(count % 512), nch: int(nch%4) + 1, seed: seed}
	ops := algoOps[c.algo]
	c.op = ops[int(op)%len(ops)]
	c.root = int(root) % c.n
	return c
}

func (c lowering) String() string {
	return fmt.Sprintf("%v/%v n=%d root=%d count=%d nch=%d seed=%d", c.algo, c.op, c.n, c.root, c.count, c.nch, c.seed)
}

func bitsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// check lowers c, verifies the program invariants and runs the programs
// against the oracle. For Reduce only the root is specified; every other
// op is checked on all ranks.
func (c lowering) check() error {
	rng := rand.New(rand.NewSource(c.seed))
	rings := make([]*Ring, c.nch)
	for i := range rings {
		rings[i] = randRing(rng, c.n)
	}
	in := randInputs(rng, c.n, c.count)
	progs := collectivetest.LowerAll(c.algo, c.op, rings, c.root, int64(c.count))
	for ch := range progs {
		for rank := range progs[ch] {
			if _, err := lowerOverDirty(c.algo, c.op, rings, rank, ch, c.root, int64(c.count)); err != nil {
				return fmt.Errorf("ch %d rank %d: %w", ch, rank, err)
			}
		}
	}
	if err := c.checkPrograms(rings, progs); err != nil {
		return err
	}
	got, err := collectivetest.Execute(c.op, progs, in)
	if err != nil {
		return err
	}
	want, err := collectivetest.Oracle(c.op, c.root, in)
	if err != nil {
		return err
	}
	for r := range want {
		if c.op == Reduce && r != c.root {
			continue
		}
		if !bitsEqual(got[r], want[r]) {
			return fmt.Errorf("rank %d: output differs from oracle", r)
		}
	}
	return nil
}

// lowerOverDirty lowers one program the way LowerAll does, into a fresh
// array, and the way the proxy does, over whatever its interpreter ran last:
// buffers full of another program's steps, smaller than the program, exactly
// as large and larger. All of them must come out as the same program, and a
// buffer with room must be the one written (that is the point of passing it).
func lowerOverDirty(algo Algo, op Op, rings []*Ring, rank, ch, root int, count int64) (Program, error) {
	want := Lower(nil, algo, op, rings, rank, ch, root, count)
	k := len(want.Steps)
	for _, size := range []int{0, k / 2, k - 1, k, 2*k + 3} {
		if size < 0 {
			continue
		}
		buf := make([]Step, size)
		for i := range buf {
			buf[i] = Step{SendPeer: 1<<20 + i, SendOff: -7, SendLen: 99, RecvPeer: -5, RecvOff: 3, RecvLen: 1 << 40, RecvReduce: i%2 == 0}
		}
		got := Lower(buf, algo, op, rings, rank, ch, root, count)
		if got.Pipelined != want.Pipelined || !slices.Equal(got.Steps, want.Steps) {
			return want, fmt.Errorf("lowered over a dirty %d-step buffer: %+v, into a fresh one: %+v", size, got, want)
		}
		if k > 0 && size >= k && &got.Steps[0] != &buf[0] {
			return want, fmt.Errorf("a %d-step buffer has room for the %d-step program but was not used", size, k)
		}
	}
	return want, nil
}

// mustLower is lowerOverDirty for the table tests.
func mustLower(t *testing.T, algo Algo, op Op, rings []*Ring, rank, ch, root int, count int64) []Step {
	t.Helper()
	prog, err := lowerOverDirty(algo, op, rings, rank, ch, root, count)
	if err != nil {
		t.Fatal(err)
	}
	return prog.Steps
}

// checkPrograms asserts what every consumer of the IR relies on:
//   - programs are rectangular and pipelined exactly when they are rings;
//   - every send has exactly one matching receive on the named peer in
//     the same round, over the same range (Execute re-checks pairing and
//     length; here ranges and in-bounds too);
//   - each rank sends the number of elements the algorithm's closed form
//     says it should;
//   - every peer a program names is an edge the strategy provisions.
func (c lowering) checkPrograms(rings []*Ring, progs [][]Program) error {
	if len(progs) != Channels(c.algo, rings) {
		return fmt.Errorf("%d channel programs, want %d", len(progs), Channels(c.algo, rings))
	}
	out := int64(c.count)
	if c.op == AllGather {
		out *= int64(c.n)
	}
	st := spec.Strategy{Channels: make([]spec.ChannelSpec, c.nch), TreeThreshold: 1}
	if c.algo == AlgoHD {
		st.Algorithm = spec.AlgoHD
	}
	provisioned := make(map[Edge]bool)
	for _, e := range Edges(&st, rings) {
		provisioned[e] = true
	}
	// The tree is provisioned at root 0 only; Select never sends another
	// root there, but its lowering is still held to every other check.
	checkEdges := c.algo != AlgoTree || c.root == 0

	sent := make([]int64, c.n)
	for ch, ranks := range progs {
		for r, prog := range ranks {
			if len(prog.Steps) != len(ranks[0].Steps) {
				return fmt.Errorf("ch %d rank %d: %d rounds, rank 0 has %d", ch, r, len(prog.Steps), len(ranks[0].Steps))
			}
			if prog.Pipelined != (c.algo == AlgoRing && c.n > 1) {
				return fmt.Errorf("ch %d rank %d: pipelined=%v under %v", ch, r, prog.Pipelined, c.algo)
			}
			for s, step := range prog.Steps {
				if step.SendOff < 0 || step.SendLen < 0 || step.SendOff+step.SendLen > out ||
					step.RecvOff < 0 || step.RecvLen < 0 || step.RecvOff+step.RecvLen > out {
					return fmt.Errorf("ch %d round %d rank %d: range out of bounds: %+v", ch, s, r, step)
				}
				if to := step.SendPeer; to >= 0 {
					if to >= c.n || to == r {
						return fmt.Errorf("ch %d round %d rank %d: bad send peer %d", ch, s, r, to)
					}
					ps := ranks[to].Steps[s]
					if ps.RecvPeer != r || ps.RecvOff != step.SendOff || ps.RecvLen != step.SendLen {
						return fmt.Errorf("ch %d round %d: rank %d sends [%d,+%d) to %d, which expects [%d,+%d) from %d",
							ch, s, r, step.SendOff, step.SendLen, to, ps.RecvOff, ps.RecvLen, ps.RecvPeer)
					}
					if checkEdges && !provisioned[Edge{c.algo, ch, r, to}] {
						return fmt.Errorf("ch %d round %d: edge %d->%d not provisioned", ch, s, r, to)
					}
					sent[r] += step.SendLen
				}
				if from := step.RecvPeer; from >= 0 {
					if from >= c.n || ranks[from].Steps[s].SendPeer != r {
						return fmt.Errorf("ch %d round %d: rank %d receives from %d, which does not send to it", ch, s, r, from)
					}
				}
			}
		}
	}
	for r := range sent {
		if want, ok := c.sentClosedForm(rings, r); ok && sent[r] != want {
			return fmt.Errorf("rank %d sends %d elements, closed form says %d", r, sent[r], want)
		}
	}
	return nil
}

// sentClosedForm returns how many elements rank sends over the whole
// collective, from the textbook description of each algorithm rather
// than from its lowering. ok is false where no simple form exists
// (halving-doubling over a span its power-of-two grid does not divide).
func (c lowering) sentClosedForm(rings []*Ring, rank int) (want int64, ok bool) {
	n, count := c.n, int64(c.count)
	if n == 1 {
		return 0, true
	}
	switch c.algo {
	case AlgoRing:
		for ch, ring := range rings {
			// share is this channel's part of region i.
			share := func(i int) int64 {
				_, l := Part(count, n, i)
				_, l = Part(l, c.nch, ch)
				return l
			}
			_, whole := Part(count, c.nch, ch)
			var all int64
			for i := 0; i < n; i++ {
				all += share(i)
			}
			p := ring.PosOf(rank)
			switch c.op {
			case AllReduce:
				// Each phase moves every region but one through the rank.
				want += 2*all - share((p+1)%n) - share((p+2)%n)
			case ReduceScatter:
				want += all - share(rank)
			case AllGather:
				want += int64(n-1) * whole
			case Broadcast:
				if rank != ring.Prev(c.root) { // the chain's tail only receives
					want += whole
				}
			case Reduce:
				if rank != c.root {
					want += whole
				}
			}
		}
		return want, true
	case AlgoTree:
		v := ((rank-c.root)%n + n) % n
		children := 0
		for mask := 1; mask < n && (v == 0 || mask < v&-v); mask <<= 1 {
			if v+mask < n {
				children++
			}
		}
		if c.op != Broadcast && rank != c.root {
			want += count // one send up the tree
		}
		if c.op != Reduce {
			want += int64(children) * count
		}
		return want, true
	default:
		p2 := 1 << (bits.Len(uint(n)) - 1)
		for ch := 0; ch < c.nch; ch++ {
			_, l := Part(count, c.nch, ch)
			if l%int64(p2) != 0 {
				return 0, false
			}
			switch {
			case rank >= p2:
				want += l // fold
			default:
				want += 2 * (l - l/int64(p2)) // ring-class traffic
				if rank < n-p2 {
					want += l // unfold
				}
			}
		}
		return want, true
	}
}

// TestLoweringTable walks the deterministic corner of the space: n = 1
// (no communication), n = 2 (next == prev), non-power-of-two rank
// counts, buffers smaller than the rank count and than the butterfly's
// power-of-two grid, every root position, 1-3 channels.
func TestLoweringTable(t *testing.T) {
	seed := int64(0)
	for _, algo := range []Algo{AlgoRing, AlgoTree, AlgoHD} {
		for _, op := range algoOps[algo] {
			for _, n := range []int{1, 2, 3, 5, 6, 7, 8, 13, 16, 17} {
				for _, count := range []int{0, 1, 3, 17, 40, 192} {
					for nch := 1; nch <= 3; nch++ {
						for _, root := range []int{0, n / 2, n - 1} {
							seed++
							c := lowering{algo: algo, op: op, n: n, root: root, count: count, nch: nch, seed: seed}
							if err := c.check(); err != nil {
								t.Fatalf("%v: %v", c, err)
							}
						}
					}
				}
			}
		}
	}
}

// TestDifferential fuzzes the whole space — algorithm, op, rank count,
// size, root, channel count, ring orders — against the oracle. It is
// the key guarantee that lets MCCS switch algorithms and reconfigure
// rings freely without corrupting tenant data.
func TestDifferential(t *testing.T) {
	f := func(seed int64, algo, op, n, root uint8, count uint16, nch uint8) bool {
		c := normalize(algo, op, n, root, count, nch, seed)
		if err := c.check(); err != nil {
			t.Logf("%v: %v", c, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// FuzzLowerExecute is the native fuzz entry to the same check, seeded
// from the quick-check corpus shape (every algorithm, the edge rank
// counts, tiny and uneven sizes).
func FuzzLowerExecute(f *testing.F) {
	for algo := uint8(0); algo < 3; algo++ {
		for _, n := range []uint8{0, 1, 4, 5, 7, 16} { // n%21+1 = 1, 2, 5, 6, 8, 17
			f.Add(algo, uint8(0), n, uint8(0), uint16(37), int64(n)+1, uint8(1))
			f.Add(algo, uint8(3), n, uint8(2), uint16(3), int64(n)+100, uint8(0))
		}
	}
	f.Fuzz(func(t *testing.T, algo, op, n, root uint8, count uint16, ringSeed int64, nch uint8) {
		c := normalize(algo, op, n, root, count, nch, ringSeed)
		if err := c.check(); err != nil {
			t.Fatalf("%v: %v", c, err)
		}
	})
}

func TestSelect(t *testing.T) {
	ring := spec.Strategy{}
	tree := spec.Strategy{TreeThreshold: 4096}
	hd := spec.Strategy{Algorithm: spec.AlgoHD}
	hdTree := spec.Strategy{Algorithm: spec.AlgoHD, TreeThreshold: 4096}
	for _, tc := range []struct {
		name  string
		st    *spec.Strategy
		op    Op
		n     int
		root  int
		bytes int64
		want  Algo
	}{
		{"plain strategy", &ring, AllReduce, 8, 0, 64, AlgoRing},
		{"single rank never leaves the (empty) ring", &hdTree, AllReduce, 1, 0, 64, AlgoRing},
		{"zero ranks", &hdTree, AllReduce, 0, 0, 64, AlgoRing},
		{"below threshold", &tree, AllReduce, 8, 0, 4095, AlgoTree},
		{"threshold is exclusive", &tree, AllReduce, 8, 0, 4096, AlgoRing},
		{"above threshold", &tree, AllReduce, 8, 0, 1 << 20, AlgoRing},
		{"rooted op at the provisioned root", &tree, Broadcast, 8, 0, 64, AlgoTree},
		{"rooted op at the provisioned root", &tree, Reduce, 8, 0, 64, AlgoTree},
		{"rooted op elsewhere stays on the rings", &tree, Broadcast, 8, 3, 64, AlgoRing},
		{"rooted op elsewhere stays on the rings", &tree, Reduce, 8, 7, 64, AlgoRing},
		{"AllReduce ignores the root", &tree, AllReduce, 8, 3, 64, AlgoTree},
		{"no tree for scatter/gather ops", &tree, AllGather, 8, 0, 64, AlgoRing},
		{"no tree for scatter/gather ops", &tree, ReduceScatter, 8, 0, 64, AlgoRing},
		{"hd AllReduce", &hd, AllReduce, 8, 0, 1 << 20, AlgoHD},
		{"hd strategy, other ops keep their rings", &hd, AllGather, 8, 0, 1 << 20, AlgoRing},
		{"hd strategy, other ops keep their rings", &hd, ReduceScatter, 8, 0, 1 << 20, AlgoRing},
		{"hd strategy, other ops keep their rings", &hd, Broadcast, 8, 0, 1 << 20, AlgoRing},
		{"hd strategy, other ops keep their rings", &hd, Reduce, 8, 2, 1 << 20, AlgoRing},
		{"tree wins small messages under hd", &hdTree, AllReduce, 8, 0, 64, AlgoTree},
		{"hd takes over at the threshold", &hdTree, AllReduce, 8, 0, 4096, AlgoHD},
		{"small non-zero-root Broadcast under hd+tree", &hdTree, Broadcast, 8, 1, 64, AlgoRing},
	} {
		if got := Select(tc.st, tc.op, tc.n, tc.root, tc.bytes); got != tc.want {
			t.Errorf("%s: Select(%v, n=%d, root=%d, %d B) = %v, want %v", tc.name, tc.op, tc.n, tc.root, tc.bytes, got, tc.want)
		}
	}
}

// Round counts are the algorithms' latency terms: 2(n-1) ring steps
// against 2·ceil(log2 n) tree rounds and 2·log2(p2) (+2 for the fold)
// halving-doubling rounds.
func TestRoundCounts(t *testing.T) {
	rounds := func(algo Algo, op Op, n int) int {
		return len(mustLower(t, algo, op, []*Ring{IdentityRing(n)}, 0, 0, 0, 100))
	}
	for _, tc := range []struct{ n, tree, hd int }{
		{1, 0, 0}, {2, 1, 2}, {3, 2, 4}, {4, 2, 4}, {5, 3, 6}, {6, 3, 6}, {7, 3, 6}, {8, 3, 6},
		{9, 4, 8}, {13, 4, 8}, {16, 4, 8}, {17, 5, 10},
	} {
		if got := rounds(AlgoTree, Reduce, tc.n); got != tc.tree {
			t.Errorf("n=%d: tree reduce rounds = %d, want %d", tc.n, got, tc.tree)
		}
		if got := rounds(AlgoTree, AllReduce, tc.n); got != 2*tc.tree {
			t.Errorf("n=%d: tree allreduce rounds = %d, want %d", tc.n, got, 2*tc.tree)
		}
		if got := rounds(AlgoHD, AllReduce, tc.n); got != tc.hd {
			t.Errorf("n=%d: hd rounds = %d, want %d", tc.n, got, tc.hd)
		}
		if got, want := rounds(AlgoRing, AllReduce, tc.n), 2*(tc.n-1); got != want {
			t.Errorf("n=%d: ring allreduce steps = %d, want %d", tc.n, got, want)
		}
		if got, want := rounds(AlgoRing, AllGather, tc.n), tc.n-1; got != want {
			t.Errorf("n=%d: ring allgather steps = %d, want %d", tc.n, got, want)
		}
	}
}

// Table-driven regression cases for the binomial-tree lowering at the
// edges that historically break tree implementations: nranks=1 (no
// communication at all), nranks=2 (single round), and non-power-of-two
// counts where some ranks have no partner in a round. Each case pins the
// exact per-rank, per-round transfer.
func TestTreeScheduleTables(t *testing.T) {
	const count = 9
	send := func(peer int) Step { return Step{SendPeer: peer, SendLen: count, RecvPeer: -1} }
	recvR := func(peer int) Step { return Step{SendPeer: -1, RecvPeer: peer, RecvLen: count, RecvReduce: true} }
	idle := Step{SendPeer: -1, RecvPeer: -1}

	cases := []struct {
		name    string
		n, root int
		reduce  [][]Step // [rank][round]
	}{
		{
			name: "n1", n: 1, root: 0,
			reduce: [][]Step{{}},
		},
		{
			name: "n2", n: 2, root: 0,
			reduce: [][]Step{
				{recvR(1)},
				{send(0)},
			},
		},
		{
			name: "n2-root1", n: 2, root: 1,
			reduce: [][]Step{
				{send(1)},
				{recvR(0)},
			},
		},
		{
			name: "n3", n: 3, root: 0,
			reduce: [][]Step{
				{recvR(1), recvR(2)},
				{send(0), idle},
				{idle, send(0)}, // vrank 2 has no partner in round 0
			},
		},
		{
			name: "n5", n: 5, root: 0,
			reduce: [][]Step{
				{recvR(1), recvR(2), recvR(4)},
				{send(0), idle, idle},
				{recvR(3), send(0), idle},
				{send(2), idle, idle},
				{idle, idle, send(0)}, // vrank 4 idles until the mask-4 round
			},
		},
		{
			name: "n6-root2", n: 6, root: 2,
			// vrank v = (rank-2) mod 6: rank 2 is the virtual root, rank 0
			// is v4 (idle at mask 2 — its would-be partner v6 does not
			// exist), rank 1 is v5.
			reduce: [][]Step{
				{recvR(1), idle, send(2)},      // v4
				{send(0), idle, idle},          // v5
				{recvR(3), recvR(4), recvR(0)}, // v0 = root
				{send(2), idle, idle},          // v1
				{recvR(5), send(2), idle},      // v2
				{send(4), idle, idle},          // v3
			},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rings := []*Ring{IdentityRing(tc.n)}
			for r := 0; r < tc.n; r++ {
				want := tc.reduce[r]
				got := mustLower(t, AlgoTree, Reduce, rings, r, 0, tc.root, count)
				if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
					t.Errorf("rank %d reduce = %+v, want %+v", r, got, want)
				}
				// Broadcast must be the exact mirror: reversed rounds with
				// send/recv flipped and no reduce.
				bc := mustLower(t, AlgoTree, Broadcast, rings, r, 0, tc.root, count)
				if len(bc) != len(want) {
					t.Fatalf("rank %d: broadcast %d rounds, want %d", r, len(bc), len(want))
				}
				for i, w := range want {
					mirror := Step{SendPeer: w.RecvPeer, SendLen: w.RecvLen, RecvPeer: w.SendPeer, RecvLen: w.SendLen}
					if j := len(want) - 1 - i; bc[j] != mirror {
						t.Errorf("rank %d: broadcast round %d = %+v, not the mirror of reduce %+v", r, j, bc[j], w)
					}
				}
			}
		})
	}
}

func TestLowerRejectsOpsWithoutSchedule(t *testing.T) {
	rings := []*Ring{IdentityRing(4)}
	for _, tc := range []struct {
		algo Algo
		op   Op
	}{{AlgoTree, AllGather}, {AlgoTree, ReduceScatter}, {AlgoHD, Broadcast}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Lower(%v, %v) did not panic", tc.algo, tc.op)
				}
			}()
			Lower(nil, tc.algo, tc.op, rings, 0, 0, 0, 8)
		}()
	}
}

// Edges pins the connection set and its establishment order (the order
// is part of the simulated schedule: connections draw their identity
// from it).
func TestEdgesOrder(t *testing.T) {
	st := spec.Strategy{
		Channels:      []spec.ChannelSpec{{Order: []int{0, 2, 1}, Route: 1}},
		TreeThreshold: 1,
		Algorithm:     spec.AlgoHD,
	}
	rings, err := Rings(nil, &st)
	if err != nil {
		t.Fatal(err)
	}
	want := []Edge{
		// ring, by position: each rank toward its next, then its prev
		{AlgoRing, 0, 0, 2}, {AlgoRing, 0, 0, 1},
		{AlgoRing, 0, 2, 1}, {AlgoRing, 0, 2, 0},
		{AlgoRing, 0, 1, 0}, {AlgoRing, 0, 1, 2},
		// root-0 binomial tree, by rank
		{AlgoTree, 0, 0, 1}, {AlgoTree, 0, 0, 2},
		{AlgoTree, 0, 1, 0},
		{AlgoTree, 0, 2, 0},
		// butterfly on p2 = 2 with rank 2 folded onto rank 0
		{AlgoHD, 0, 0, 2}, {AlgoHD, 0, 0, 1},
		{AlgoHD, 0, 1, 0},
		{AlgoHD, 0, 2, 0},
	}
	if got := Edges(&st, rings); !reflect.DeepEqual(got, want) {
		t.Errorf("Edges = %v\nwant    %v", got, want)
	}
	st.Routes = map[spec.ConnKey]int{{Channel: 0, FromRank: 0, ToRank: 1}: 3}
	for _, tc := range []struct {
		e            Edge
		route, label int
	}{
		{Edge{AlgoRing, 0, 0, 2}, 1, 0},
		{Edge{AlgoRing, 0, 0, 1}, 3, 0},
		{Edge{AlgoTree, 0, 0, 1}, spec.RouteECMP, 1 << 20},
		{Edge{AlgoHD, 0, 0, 1}, 3, 1 << 21},
		{Edge{AlgoHD, 1, 0, 1}, spec.RouteECMP, 1<<21 + 1},
	} {
		if got := tc.e.Route(&st); got != tc.route {
			t.Errorf("%v route = %d, want %d", tc.e, got, tc.route)
		}
		if got := tc.e.LabelChannel(); got != tc.label {
			t.Errorf("%v label channel = %d, want %d", tc.e, got, tc.label)
		}
	}
}

// If a is a peer of b, b must be a peer of a, and every family's edges
// must connect the communicator.
func TestEdgesSymmetricConnected(t *testing.T) {
	for _, n := range []int{2, 5, 6, 11, 16} {
		st := spec.Strategy{Channels: make([]spec.ChannelSpec, 1), TreeThreshold: 1, Algorithm: spec.AlgoHD}
		adj := make(map[Edge]bool)
		for _, e := range Edges(&st, []*Ring{IdentityRing(n)}) {
			adj[e] = true
		}
		for _, algo := range []Algo{AlgoRing, AlgoTree, AlgoHD} {
			seen := map[int]bool{0: true}
			queue := []int{0}
			for len(queue) > 0 {
				u := queue[0]
				queue = queue[1:]
				for e := range adj {
					if e.Algo != algo || e.From != u {
						continue
					}
					if !adj[Edge{algo, e.Channel, e.To, e.From}] {
						t.Errorf("n=%d: %v edge %d->%d has no reverse", n, algo, e.From, e.To)
					}
					if !seen[e.To] {
						seen[e.To] = true
						queue = append(queue, e.To)
					}
				}
			}
			if len(seen) != n {
				t.Errorf("n=%d: %v edges connect %d of %d ranks", n, algo, len(seen), n)
			}
		}
	}
}

func TestExecuteRejectsMismatchedPrograms(t *testing.T) {
	rings := []*Ring{IdentityRing(4)}
	in := randInputs(rand.New(rand.NewSource(1)), 4, 8)
	for name, corrupt := range map[string]func(p [][]Program){
		"dropped receive":    func(p [][]Program) { p[0][1].Steps[0].RecvPeer = -1 },
		"dropped send":       func(p [][]Program) { p[0][0].Steps[0].SendPeer = -1 },
		"length mismatch":    func(p [][]Program) { p[0][1].Steps[0].RecvLen-- },
		"range out of range": func(p [][]Program) { p[0][2].Steps[1].SendOff = 7 },
		"ragged programs":    func(p [][]Program) { p[0][3].Steps = p[0][3].Steps[1:] },
	} {
		progs := collectivetest.LowerAll(AlgoRing, AllReduce, rings, 0, 8)
		corrupt(progs)
		if _, err := collectivetest.Execute(AllReduce, progs, in); err == nil {
			t.Errorf("%s: Execute accepted corrupted programs", name)
		}
	}
}

// Execute reuses each rank's send snapshot across rounds, so "sent this
// round" is a flag, not a non-nil buffer: a zero-length send must still
// count as a send, and a snapshot left over from an earlier round must not.
func TestExecuteSendSnapshotPerRound(t *testing.T) {
	in := [][]float32{{1, 2, 3}, {0, 0, 0}}
	idle := Step{SendPeer: -1, RecvPeer: -1}
	send := func(l int64) Step { return Step{SendPeer: 1, SendLen: l, RecvPeer: -1} }
	recv := func(l int64) Step { return Step{SendPeer: -1, RecvPeer: 0, RecvLen: l} }

	progs := [][]Program{{{Steps: []Step{send(3), send(0)}}, {Steps: []Step{recv(3), recv(0)}}}}
	out, err := collectivetest.Execute(Broadcast, progs, in)
	if err != nil {
		t.Fatalf("zero-length send after a full one: %v", err)
	}
	if want := []float32{1, 2, 3}; !reflect.DeepEqual(out[1], want) {
		t.Errorf("rank 1 holds %v, want %v", out[1], want)
	}

	progs = [][]Program{{{Steps: []Step{send(3), idle}}, {Steps: []Step{recv(3), recv(3)}}}}
	if _, err := collectivetest.Execute(Broadcast, progs, in); err == nil {
		t.Error("Execute accepted a receive from a rank that sent only in the previous round")
	}
}
