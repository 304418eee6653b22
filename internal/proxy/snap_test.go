package proxy

import (
	"testing"

	"mccs/internal/allocpin"
	"mccs/internal/gpusim"
	"mccs/internal/sim"
	"mccs/internal/spec"
)

// TestSnapBinsCoverTheirClass: whatever capacity a slice comes back with,
// the bin it lands in only serves requests it can hold.
func TestSnapBinsCoverTheirClass(t *testing.T) {
	var sp snapPool
	for _, c := range []int{1, 5, 8, 12, 16, 1000, 1024} {
		sp.put(make([]float32, c))
	}
	for c, bin := range sp.free {
		for _, b := range bin {
			if cap(b) < 1<<c {
				t.Errorf("bin %d (requests up to %d elements) holds a slice of capacity %d", c, 1<<c, cap(b))
			}
		}
	}
	for _, n := range []int64{1, 5, 8, 9, 16, 700, 1024} {
		if b := sp.get(n); int64(len(b)) != n || int64(cap(b)) < n {
			t.Errorf("get(%d) = len %d cap %d", n, len(b), cap(b))
		}
	}
}

// drainSnapStore empties the process-wide snapshot store.
func drainSnapStore() {
	for c := range len(snapPool{}.free) {
		for snapStore.Get(1<<c) != nil {
		}
	}
}

// snapRig runs backed AllReduces on fresh communicators over one rig.
type snapRig struct {
	t     *testing.T
	r     *rig
	bufs  []*gpusim.Buffer
	comms []*Comm
	next  spec.CommID
}

const snapCount = 1 << 12

func newSnapRig(t *testing.T) *snapRig {
	r := newRig(t)
	bufs, _ := backedBuffers(t, r, r.fourHostGPUs(), snapCount, 5)
	return &snapRig{t: t, r: r, bufs: bufs}
}

// build makes n communicators ahead of the runs, so a measured run pays
// for its AllReduce and Destroy only.
func (sr *snapRig) build(n int) {
	for ; n > 0; n-- {
		sr.next++
		info := spec.CommInfo{ID: sr.next, App: "snaps"}
		for i, g := range sr.r.fourHostGPUs() {
			info.Ranks = append(info.Ranks, spec.RankInfo{Rank: i, GPU: g, Host: sr.r.cluster.HostOfGPU(g), NIC: sr.r.cluster.NICOfGPU(g)})
		}
		for ci := 0; ci < 2; ci++ {
			info.Strategy.Channels = append(info.Strategy.Channels, spec.ChannelSpec{Order: []int{0, 1, 2, 3}, Route: ci})
		}
		comm, err := NewComm(sr.r.s, sr.r.cluster, sr.r.engines, sr.r.devices, info, DefaultConfig())
		if err != nil {
			sr.t.Fatal(err)
		}
		sr.comms = append(sr.comms, comm)
	}
	if err := sr.r.s.Run(); err != nil {
		sr.t.Fatal(err)
	}
}

// run takes the next communicator built, runs one backed AllReduce on it
// and returns its idle snapshots, then destroys it.
func (sr *snapRig) run() (idle [][]float32) {
	comm := sr.comms[0]
	sr.comms = sr.comms[1:]
	sr.r.s.Go("driver", func(p *sim.Proc) { runAllReduce(p, comm, sr.bufs, snapCount) })
	if err := sr.r.s.Run(); err != nil {
		sr.t.Fatal(err)
	}
	for _, bin := range comm.snaps.free {
		idle = append(idle, bin...)
	}
	comm.Destroy()
	if err := sr.r.s.Run(); err != nil {
		sr.t.Fatal(err)
	}
	return idle
}

// TestWarmStoreServesSnapshots: a communicator built after another was
// destroyed runs its first backed AllReduce on the snapshots the first one
// left, not on new ones.
func TestWarmStoreServesSnapshots(t *testing.T) {
	sr := newSnapRig(t)
	sr.build(2)
	drainSnapStore()
	first := map[*float32]bool{}
	for _, b := range sr.run() {
		first[&b[:1][0]] = true
	}
	if len(first) == 0 {
		t.Fatal("the AllReduce left no snapshot idle")
	}
	for _, b := range sr.run() {
		if !first[&b[:1][0]] {
			t.Errorf("the second communicator made a snapshot of %d elements", cap(b))
		}
	}
	sr.r.s.Shutdown()
}

// TestSnapshotStoreAllocations pins the store with allocpin: the first
// backed AllReduce on a communicator (built beforehand) allocates exactly
// one object more per snapshot on an emptied store than on the store a
// destroyed communicator filled — on a warm store it makes no snapshot.
// Under the race detector the counts move by several objects from run to
// run; TestWarmStoreServesSnapshots covers that build.
func TestSnapshotStoreAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inexact under the race detector")
	}
	sr := newSnapRig(t)
	sr.build(13)
	idle := len(sr.run())
	warm := allocpin.Min(1, func() { sr.run() })
	cold := allocpin.Min(1, func() {
		drainSnapStore()
		sr.run()
	})
	if idle == 0 || cold-warm != float64(idle) {
		t.Errorf("a first AllReduce allocates %v times on an emptied store, %v on a warm one: %v more, want %d (one per snapshot)",
			cold, warm, cold-warm, idle)
	}
	sr.r.s.Shutdown()
}
