package chaos

import (
	"fmt"
	"math/rand"
	"sync"

	"mccs/internal/freelist"
)

// checker runs a chaos run's data work beside the event loop, on two
// goroutines of its own. The simulation's goroutines take turns, so
// anything they do is on the run's critical path; the checker's two jobs
// need nothing from the simulation but the script and the contents of
// finished buffers, so they run on a second core instead:
//
//   - the producer builds the script op by op (buildOp) from the
//     workload stream, which nothing else draws, and publishes each op
//     once it is complete; a rank waits for op i (op) before it
//     allocates op i's buffers;
//   - the verifier checks each finished op (hand) against the closed form
//     while the rank goes on issuing, and keeps, per rank, the failure
//     with the lowest op index.
//
// Both waits are real-time waits the simulation cannot observe: no event
// is scheduled and no PRNG draw is made on either goroutine, so a run's
// schedule, and with it every trace hash, is the one the inline checker
// produced. The goroutines touch the script and the slices of finished
// buffers only — never a sim object, another PRNG stream or the Picker.
// A panic on either becomes the run's error instead of killing the
// process: runSim's recover only covers the simulation's own goroutines.
type checker struct {
	ops []opSpec

	mu    sync.Mutex
	ready sync.Cond // signalled as built grows or the producer fails
	built int       // ops[:built] are complete; guarded by mu
	err   error     // why the producer stopped early; guarded by mu

	finished chan finishedOp
	failed   []opFailure // per rank; the verifier's until join returns
	wg       sync.WaitGroup
	joined   bool

	// tamper, when set, is called on the rank's process with an op's
	// buffers as the rank hands them over, before the verifier sees them.
	tamper func(rank, idx int, recv, send []float32)
}

// finishedOp is one completed collective as a rank hands it over: the
// rank, the op's script index and the device data of its two buffers.
type finishedOp struct {
	rank, idx  int
	recv, send []float32
}

// opFailure is a rank's lowest failing op (err nil: none failed).
type opFailure struct {
	idx int
	err error
}

// startChecker starts a run's producer on the workload stream wrk, which
// it owns from here on, building the script over tables from store, and
// its verifier.
func startChecker(sc Scenario, wrk *rand.Rand, store *freelist.List[uint8]) *checker {
	c := &checker{
		ops: make([]opSpec, sc.Ops),
		// One slot per op the ranks can finish, so a hand-off never blocks.
		finished: make(chan finishedOp, sc.Ranks*sc.Ops),
		failed:   make([]opFailure, sc.Ranks),
	}
	c.ready.L = &c.mu
	c.wg.Add(2)
	go c.produce(sc, wrk, store)
	go c.verify()
	return c
}

func (c *checker) produce(sc Scenario, wrk *rand.Rand, store *freelist.List[uint8]) {
	defer c.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			c.mu.Lock()
			c.err = fmt.Errorf("script producer panicked: %v", r)
			c.ready.Broadcast()
			c.mu.Unlock()
		}
	}()
	for i := range c.ops {
		c.ops[i] = buildOp(sc, wrk, store)
		c.mu.Lock()
		c.built = i + 1
		c.ready.Broadcast()
		c.mu.Unlock()
	}
}

// op waits for script op i to be built and returns it.
func (c *checker) op(i int) (*opSpec, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.built <= i && c.err == nil {
		c.ready.Wait()
	}
	if c.built <= i {
		return nil, c.err
	}
	return &c.ops[i], nil
}

// hand queues a rank's finished op for the verifier. The rank must not
// touch either buffer afterwards.
func (c *checker) hand(rank, idx int, recv, send []float32) {
	if c.tamper != nil {
		c.tamper(rank, idx, recv, send)
	}
	c.finished <- finishedOp{rank: rank, idx: idx, recv: recv, send: send}
}

func (c *checker) verify() {
	defer c.wg.Done()
	for f := range c.finished {
		if cur := c.failed[f.rank]; cur.err != nil && cur.idx < f.idx {
			continue
		}
		if err := c.check(f); err != nil {
			c.failed[f.rank] = opFailure{idx: f.idx, err: err}
		}
	}
}

// check compares a finished op's buffers with the closed form: the
// receive buffer must hold opSpec.out, and, both ops being out of place,
// the send buffer must still hold the rank's inputs.
func (c *checker) check(f finishedOp) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("rank %d op %d: verifier panicked: %v", f.rank, f.idx, r)
		}
	}()
	op := &c.ops[f.idx]
	err = checkData("recv", f.recv, op.out())
	if err == nil {
		err = checkData("send", f.send, op.rankIn(f.rank))
	}
	if err != nil {
		return fmt.Errorf("rank %d op %d (%v count %d): %w", f.rank, f.idx, op.op, op.count, err)
	}
	return nil
}

// join lets the verifier drain every hand-off and waits for it and for
// the producer (which builds at most the rest of a short script); it is
// idempotent. It returns each rank's lowest failing op, which makes a
// run's verdict independent of when the verifier got to each op. Call it
// once no rank can hand over an op any more.
func (c *checker) join() []opFailure {
	if !c.joined {
		c.joined = true
		close(c.finished)
		c.wg.Wait()
	}
	return c.failed
}

// checkData compares a device buffer with the bytes it must hold.
func checkData(what string, got []float32, want []uint8) error {
	if len(got) < len(want) {
		return fmt.Errorf("%s holds %d elements, want %d", what, len(got), len(want))
	}
	got = got[:len(want)]
	for j, w := range want {
		if got[j] != float32(w) {
			return fmt.Errorf("%s element %d = %v, want %d", what, j, got[j], w)
		}
	}
	return nil
}
