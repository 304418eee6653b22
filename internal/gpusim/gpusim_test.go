package gpusim

import (
	"math"
	"sync"
	"testing"
	"time"

	"mccs/internal/freelist"
	"mccs/internal/sim"
)

func newDev(s *sim.Scheduler) *Device { return NewDevice(s, 0, DefaultConfig(), nil) }

func TestAllocAccounting(t *testing.T) {
	s := sim.New()
	d := newDev(s)
	b1, err := d.Alloc(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if d.allocated != 1<<20 {
		t.Errorf("allocated = %d, want %d", d.allocated, 1<<20)
	}
	if b1.Backed() {
		t.Error("plain Alloc should be unbacked")
	}
	if err := b1.Free(); err != nil {
		t.Fatal(err)
	}
	if d.allocated != 0 {
		t.Errorf("allocated after free = %d, want 0", d.allocated)
	}
	if err := b1.Free(); err == nil {
		t.Error("double free accepted")
	}
}

func TestAllocOOM(t *testing.T) {
	s := sim.New()
	d := NewDevice(s, 0, DeviceConfig{MemoryBytes: 1024, MemBandwidth: 1e9, LaunchLatency: 0}, nil)
	if _, err := d.Alloc(2048); err == nil {
		t.Error("over-capacity allocation accepted")
	}
	if _, err := d.Alloc(0); err == nil {
		t.Error("zero-byte allocation accepted")
	}
	b, err := d.Alloc(1024)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Alloc(1); err == nil {
		t.Error("allocation beyond capacity accepted")
	}
	if err := b.Free(); err != nil {
		t.Fatal(err)
	}
	// In use + requested must not wrap: with anything allocated, a
	// request near the int64 limit is still over capacity.
	if _, err := d.Alloc(16); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int64{math.MaxInt64, math.MaxInt64 - 15} {
		if _, err := d.Alloc(n); err == nil {
			t.Errorf("Alloc(%d) with 16 bytes in use accepted; allocated = %d", n, d.allocated)
		}
		if _, err := d.AllocBacked(n - n%4); err == nil {
			t.Errorf("AllocBacked(%d) with 16 bytes in use accepted", n-n%4)
		}
	}
	if d.allocated != 16 {
		t.Errorf("allocated = %d after refused requests, want 16", d.allocated)
	}
}

func TestAllocBackedWholeElements(t *testing.T) {
	d := newDev(sim.New())
	for _, n := range []int64{1, 2, 3, 6, 4099} {
		if b, err := d.AllocBacked(n); err == nil {
			t.Errorf("AllocBacked(%d) accepted: Bytes %d, %d elements, Backed %v", n, b.Bytes(), len(b.Data()), b.Backed())
		}
	}
	if d.allocated != 0 {
		t.Errorf("refused requests left %d bytes allocated", d.allocated)
	}
	// Unbacked memory has no element size.
	if _, err := d.Alloc(6); err != nil {
		t.Errorf("Alloc(6): %v", err)
	}
	b, err := d.AllocBacked(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Data()) != 2 {
		t.Errorf("AllocBacked(8) holds %d elements, want 2", len(b.Data()))
	}
}

// TestFreedBackingIsRecycledCleared: Free hands a buffer's backing to the
// device's free list and leaves the buffer unreadable; the next allocation
// of that size gets the same memory, cleared, so it reads like a fresh one.
func TestFreedBackingIsRecycledCleared(t *testing.T) {
	const n = 12347 // elements
	d := NewDevice(sim.New(), 0, DefaultConfig(), new(freelist.List[float32]))
	b, err := d.AllocBacked(n * 4)
	if err != nil {
		t.Fatal(err)
	}
	data := b.Data()
	for i := range data {
		data[i] = float32(i + 1)
	}
	if err := b.Free(); err != nil {
		t.Fatal(err)
	}
	if b.Data() != nil || b.Backed() {
		t.Fatalf("freed buffer still reads %d elements", len(b.Data()))
	}
	again, err := d.AllocBacked(n * 4)
	if err != nil {
		t.Fatal(err)
	}
	got := again.Data()
	if len(got) != n {
		t.Fatalf("reallocated buffer holds %d elements, want %d", len(got), n)
	}
	if &got[0] != &data[0] {
		t.Error("the freed backing was not reused")
	}
	for i, v := range got {
		if v != 0 {
			t.Fatalf("recycled element %d = %v, want 0", i, v)
		}
	}
	if err := again.Free(); err != nil {
		t.Fatal(err)
	}
}

// TestRecyclerSharedAcrossDevices: devices of separate deployments, each
// driven by its own goroutine, allocate from and release to one shared
// free list; every allocation must read zeroed and stay private to its
// buffer. Run it under -race.
func TestRecyclerSharedAcrossDevices(t *testing.T) {
	var backings freelist.List[float32]
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			d := NewDevice(sim.New(), w, DefaultConfig(), &backings)
			for round := 0; round < 50; round++ {
				var bufs []*Buffer
				for i := 1; i <= 8; i++ {
					b, err := d.AllocBacked(int64(4 * (i*97 + round%5)))
					if err != nil {
						t.Error(err)
						return
					}
					for j, v := range b.Data() {
						if v != 0 {
							t.Errorf("worker %d: fresh element %d = %v", w, j, v)
							return
						}
						b.Data()[j] = float32(w + 1)
					}
					bufs = append(bufs, b)
				}
				for _, b := range bufs {
					for _, v := range b.Data() {
						if v != float32(w+1) {
							t.Errorf("worker %d: a buffer changed under it: %v", w, v)
							return
						}
					}
				}
				if round%2 == 0 {
					for _, b := range bufs {
						if err := b.Free(); err != nil {
							t.Error(err)
							return
						}
					}
				} else {
					d.Reset()
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestResetFreesEverything: Device.Reset frees every buffer on the
// device, IPC mappings open or not, and returns its memory.
func TestResetFreesEverything(t *testing.T) {
	d := newDev(sim.New())
	var bufs []*Buffer
	for _, n := range []int64{64, 4096, 1 << 20} {
		b, err := d.AllocBacked(n)
		if err != nil {
			t.Fatal(err)
		}
		b.Data()[0] = 1
		bufs = append(bufs, b)
	}
	plain, err := d.Alloc(1 << 10)
	if err != nil {
		t.Fatal(err)
	}
	bufs = append(bufs, plain)
	alias, err := OpenMemHandle(bufs[1].IPCHandle())
	if err != nil {
		t.Fatal(err)
	}
	d.Reset()
	if d.allocated != 0 || len(d.buffers) != 0 {
		t.Errorf("after Reset: allocated %d bytes in %d buffers, want none", d.allocated, len(d.buffers))
	}
	for i, b := range bufs {
		if b.Backed() || b.Data() != nil {
			t.Errorf("buffer %d still backed after Reset", i)
		}
		if err := b.Free(); err == nil {
			t.Errorf("buffer %d: Free after Reset accepted", i)
		}
	}
	if alias.Data() != nil {
		t.Error("IPC mapping still reads memory after Reset")
	}
	if _, err := OpenMemHandle(bufs[0].IPCHandle()); err == nil {
		t.Error("IPC handle opened after Reset")
	}
	if _, err := d.Alloc(d.cfg.MemoryBytes); err != nil {
		t.Errorf("full-capacity allocation after Reset: %v", err)
	}
}

func TestIPCHandleLifecycle(t *testing.T) {
	s := sim.New()
	d := newDev(s)
	b, err := d.AllocBacked(16)
	if err != nil {
		t.Fatal(err)
	}
	h := b.IPCHandle()
	alias, err := OpenMemHandle(h)
	if err != nil {
		t.Fatal(err)
	}
	// The alias shares memory.
	alias.Data()[0] = 42
	if b.Data()[0] != 42 {
		t.Error("IPC alias does not share memory")
	}
	// Freeing with a handle open is rejected.
	if err := b.Free(); err == nil {
		t.Error("free with open IPC handle accepted")
	}
	if err := CloseMemHandle(alias); err != nil {
		t.Fatal(err)
	}
	if err := CloseMemHandle(alias); err == nil {
		t.Error("unbalanced CloseMemHandle accepted")
	}
	if err := b.Free(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenMemHandle(h); err == nil {
		t.Error("stale IPC handle opened after free")
	}
}

func TestStreamOrderingAndTiming(t *testing.T) {
	s := sim.New()
	d := NewDevice(s, 0, DeviceConfig{MemoryBytes: 1 << 30, MemBandwidth: 1e9, LaunchLatency: time.Microsecond}, nil)
	st := d.NewStream("s")
	var order []string
	var endTimes []sim.Time
	s.Go("host", func(p *sim.Proc) {
		st.Launch("k1", 10*time.Microsecond, func() {
			order = append(order, "k1")
			endTimes = append(endTimes, p.Now())
		})
		st.Launch("k2", 5*time.Microsecond, func() {
			order = append(order, "k2")
			endTimes = append(endTimes, p.Now())
		})
		st.Synchronize(p)
		order = append(order, "sync")
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != "k1" || order[1] != "k2" || order[2] != "sync" {
		t.Fatalf("order = %v", order)
	}
	// k1 ends at launch+10us = 11us; k2 at 11+1+5 = 17us.
	if endTimes[0] != sim.Time(11*time.Microsecond) {
		t.Errorf("k1 end = %v, want 11us", endTimes[0])
	}
	if endTimes[1] != sim.Time(17*time.Microsecond) {
		t.Errorf("k2 end = %v, want 17us", endTimes[1])
	}
}

func TestEventCrossStream(t *testing.T) {
	s := sim.New()
	d := NewDevice(s, 0, DeviceConfig{MemoryBytes: 1 << 30, MemBandwidth: 1e9, LaunchLatency: 0}, nil)
	a := d.NewStream("a")
	b := d.NewStream("b")
	ev := NewEvent()
	var order []string
	s.Go("host", func(p *sim.Proc) {
		a.Launch("slow", 100*time.Microsecond, func() { order = append(order, "slow") })
		a.Record(ev)
		b.WaitEvent(ev)
		b.Launch("after", time.Microsecond, func() { order = append(order, "after") })
		b.Synchronize(p)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "slow" || order[1] != "after" {
		t.Fatalf("order = %v, want [slow after]", order)
	}
}

func TestWaitOnUnrecordedEventDoesNotBlock(t *testing.T) {
	s := sim.New()
	d := newDev(s)
	st := d.NewStream("s")
	ev := NewEvent()
	ran := false
	s.Go("host", func(p *sim.Proc) {
		st.WaitEvent(ev) // never recorded: per CUDA, a no-op
		st.Launch("k", time.Microsecond, func() { ran = true })
		st.Synchronize(p)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Error("stream stuck behind unrecorded event")
	}
}

func TestEventReRecordSnapshotsAtWaitTime(t *testing.T) {
	// WaitEvent must wait on the record instance current at call time,
	// not on later re-records.
	s := sim.New()
	d := NewDevice(s, 0, DeviceConfig{MemoryBytes: 1 << 30, MemBandwidth: 1e9, LaunchLatency: 0}, nil)
	a := d.NewStream("a")
	b := d.NewStream("b")
	ev := NewEvent()
	var afterAt sim.Time
	s.Go("host", func(p *sim.Proc) {
		a.Launch("k1", 10*time.Microsecond, nil)
		a.Record(ev)
		b.WaitEvent(ev) // snapshot: completes at ~10us
		// Re-record behind a much slower kernel; must not affect b.
		a.Launch("k2", 10*time.Millisecond, nil)
		a.Record(ev)
		b.Launch("after", time.Microsecond, func() { afterAt = p.Now() })
		b.Synchronize(p)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if afterAt > sim.Time(time.Millisecond) {
		t.Errorf("b waited for the re-record (done at %v); snapshot semantics broken", afterAt)
	}
}

func TestEventWaitHost(t *testing.T) {
	s := sim.New()
	d := NewDevice(s, 0, DeviceConfig{MemoryBytes: 1 << 30, MemBandwidth: 1e9, LaunchLatency: 0}, nil)
	st := d.NewStream("s")
	ev := NewEvent()
	var doneAt sim.Time
	s.Go("host", func(p *sim.Proc) {
		st.Launch("k", 50*time.Microsecond, nil)
		st.Record(ev)
		ev.WaitHost(p)
		doneAt = p.Now()
		if !ev.Done() {
			t.Error("event not done after WaitHost")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if doneAt != sim.Time(50*time.Microsecond) {
		t.Errorf("WaitHost returned at %v, want 50us", doneAt)
	}
}
