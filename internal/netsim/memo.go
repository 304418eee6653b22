package netsim

import (
	"math"
	"slices"
)

// This file is the memo in front of Fabric.solve.
//
// solve is a pure function of the ID-ordered flow list — per flow its
// route, rate cap and priority bit — and of the link capacities. MCCS pins
// every connection to a route and sends a collective step as thousands of
// identical slices over the same few connections, so a testbed-scale fabric
// is asked to solve the same few inputs again and again. The memo keys an allocation by exactly those
// inputs and, on a repeat, hands back the floats solve produced the first
// time: a hit is bit-identical to a solve by construction, and
// referenceAllocate stays the oracle for both.
//
// The key is one word per flow in ID order — the flow's interned
// (route content, maxRate, priority) spec ID — plus a capacity epoch that
// SetLinkCapacity bumps whenever a capacity really changes, which
// invalidates every stored entry in O(1). A lookup compares the whole key,
// never the hash alone.
//
// Flow sets of more than memoMaxFlows flows bypass the memo entirely; their
// flows are not even interned. Such sets do recur: on the 768-GPU Clos
// (cluster.Run, 50 jobs, seeds 1 and 2 under each of its three strategies)
// a run solves 451 to 1 399 sets of more than 16 flows, and 135 to 557 of
// them (28 to 65 %) repeat an earlier set's flow sequence exactly. Keeping
// them would cost more than the hits save: about 700 entries of 3 + 2n
// words per run, ≈ 0.8 KB per job iteration, a fifth of what a whole run
// allocates per iteration.

const (
	// memoMaxFlows is the largest flow set the memo handles; testbed
	// traffic averages six to eight flows per recompute.
	memoMaxFlows = 16
	// memoMaxEntries caps the stored allocations. A table that fills up is
	// emptied and starts over, which also sheds entries stranded by old
	// capacity epochs.
	memoMaxEntries = 4096
	// memoChunkWords is the size of one storage chunk (32 KiB). Storage
	// grows a chunk at a time and is reused after the table is emptied.
	memoChunkWords = 4096
	// memoMaxSpec is the largest spec ID the memo keys: a fabric that has
	// interned more distinct specs than this is not replaying a few inputs.
	memoMaxSpec = 1<<24 - 1

	// An entry is memoHeader words — key hash, capacity epoch, and the
	// chain link (position+1 of the next entry in the bucket) shifted over
	// the flow count — followed by two words per flow: key word over
	// bottleneck link, then the rate's bits.
	memoHeader  = 3
	memoMinHead = 64
)

// flowSpec is one interned (route content, maxRate, priority) triple.
type flowSpec struct {
	route    []LinkID // a cached path, or a private copy: a caller may reuse its own slice
	route32  []int32  // the route as trace spans carry it, converted on first use
	maxRate  float64
	priority bool
	next     uint32 // next spec with the same content hash; 0 ends the chain
}

type allocMemo struct {
	epoch uint64 // bumped by SetLinkCapacity on a real change

	specs      []flowSpec        // indexed by spec ID; specs[0] is unused
	specByHash map[uint64]uint32 // content hash -> first spec ID of its chain

	heads  []uint32   // bucket -> position+1 of its first entry; power-of-two length
	chunks [][]uint64 // entry storage; an entry never straddles chunks
	cur    int        // chunk being filled
	used   int        // words used in chunks[cur]

	// The key memoKey built for the current flow set, and its hash.
	key  [memoMaxFlows]uint32
	hash uint64
}

// specOf returns fl's spec ID, interning its (route, maxRate, priority) on
// first use. Interning is lazy so that a flow which only ever lives in
// over-limit, untraced flow sets costs nothing here.
func (fb *Fabric) specOf(fl *Flow) uint32 {
	if fl.spec == 0 {
		fl.spec = fb.memo.intern(fl, fb.net)
	}
	return fl.spec
}

// intern finds or adds the spec with fl's content. A new spec keeps fl's
// route itself when it is one of net's cached paths, and a copy otherwise.
func (m *allocMemo) intern(fl *Flow, net *Network) uint32 {
	rateBits := math.Float64bits(fl.maxRate)
	h := fnv64Offset
	for _, l := range fl.Route {
		h = (h ^ uint64(l)) * fnv64Prime
	}
	h = (h ^ rateBits) * fnv64Prime
	if fl.priority {
		h = (h ^ 1) * fnv64Prime
	}
	for id := m.specByHash[h]; id != 0; id = m.specs[id].next {
		sp := &m.specs[id]
		if math.Float64bits(sp.maxRate) == rateBits && sp.priority == fl.priority && slices.Equal(sp.route, fl.Route) {
			return id
		}
	}
	if m.specByHash == nil {
		m.specByHash = make(map[uint64]uint32)
		m.specs = make([]flowSpec, 1)
	}
	route := fl.Route
	if !net.isCachedPath(fl.Src, fl.Dst, route) {
		route = slices.Clone(route)
	}
	m.specs = append(m.specs, flowSpec{
		route: route, maxRate: fl.maxRate, priority: fl.priority,
		next: m.specByHash[h],
	})
	id := uint32(len(m.specs) - 1)
	m.specByHash[h] = id
	return id
}

// traceRoute returns fl's route as a trace span carries it. Every flow with
// the same spec shares one slice; span consumers only read it.
func (fb *Fabric) traceRoute(fl *Flow) []int32 {
	sp := &fb.memo.specs[fb.specOf(fl)]
	if sp.route32 == nil {
		sp.route32 = make([]int32, len(sp.route))
		for i, l := range sp.route {
			sp.route32[i] = int32(l)
		}
	}
	return sp.route32
}

// memoKey builds and hashes the key of the current flow set. It reports
// false when the set bypasses the memo.
func (fb *Fabric) memoKey() bool {
	n := len(fb.flows)
	if n > memoMaxFlows {
		return false
	}
	m := &fb.memo
	h := (fnv64Offset ^ m.epoch) * fnv64Prime
	h = (h ^ uint64(n)) * fnv64Prime
	for i, fl := range fb.flows {
		w := fb.specOf(fl)
		if w > memoMaxSpec {
			return false
		}
		m.key[i] = w
		h = (h ^ uint64(w)) * fnv64Prime
	}
	// The multiplications carry entropy upwards only; buckets index by the
	// low bits, so fold the high half down.
	m.hash = h ^ h>>32
	return true
}

// entry returns the storage from position pos to the end of its chunk.
func (m *allocMemo) entry(pos uint32) []uint64 {
	return m.chunks[pos/memoChunkWords][pos%memoChunkWords:]
}

// memoLoad looks the current key up and, on a hit, installs the stored
// rates and bottlenecks exactly as solve would have left them.
func (fb *Fabric) memoLoad() bool {
	m := &fb.memo
	n := len(fb.flows)
	if len(m.heads) > 0 {
		pos := m.heads[m.hash&uint64(len(m.heads)-1)]
	chain:
		for pos != 0 {
			e := m.entry(pos - 1)
			pos = uint32(e[2] >> 8)
			if e[0] != m.hash || e[1] != m.epoch || int(e[2]&0xff) != n {
				continue
			}
			body := e[memoHeader : memoHeader+2*n]
			for i, w := range m.key[:n] {
				if uint32(body[2*i]>>32) != w {
					continue chain
				}
			}
			for i, fl := range fb.flows {
				fb.bott[i] = LinkID(int32(body[2*i]))
				fl.rate = math.Float64frombits(body[2*i+1])
			}
			fb.MemoHits++
			return true
		}
	}
	fb.MemoMisses++
	return false
}

// memoStore files what solve just computed under the current key.
func (fb *Fabric) memoStore() {
	m := &fb.memo
	n := len(fb.flows)
	if fb.MemoEntries == memoMaxEntries {
		clear(m.heads)
		m.cur, m.used, fb.MemoEntries = 0, 0, 0
	}
	if fb.MemoEntries == len(m.heads) {
		m.growHeads()
	}
	need := memoHeader + 2*n
	if m.used+need > memoChunkWords {
		m.cur++
		m.used = 0
	}
	if m.cur == len(m.chunks) {
		m.chunks = append(m.chunks, make([]uint64, memoChunkWords))
	}
	pos := uint32(m.cur*memoChunkWords + m.used)
	m.used += need
	fb.MemoEntries++

	head := &m.heads[m.hash&uint64(len(m.heads)-1)]
	e := m.entry(pos)
	e[0], e[1], e[2] = m.hash, m.epoch, uint64(*head)<<8|uint64(n)
	*head = pos + 1
	body := e[memoHeader : memoHeader+2*n]
	for i, fl := range fb.flows {
		body[2*i] = uint64(m.key[i])<<32 | uint64(uint32(int32(fb.bott[i])))
		body[2*i+1] = math.Float64bits(fl.rate)
	}
}

// growHeads doubles the bucket array (up to one bucket per entry the table
// may hold) and relinks every entry by its stored hash.
func (m *allocMemo) growHeads() {
	old := m.heads
	m.heads = make([]uint32, max(memoMinHead, 2*len(old)))
	mask := uint64(len(m.heads) - 1)
	for _, pos := range old {
		for pos != 0 {
			e := m.entry(pos - 1)
			next := uint32(e[2] >> 8)
			head := &m.heads[e[0]&mask]
			e[2] = uint64(*head)<<8 | e[2]&0xff
			*head = pos
			pos = next
		}
	}
}
