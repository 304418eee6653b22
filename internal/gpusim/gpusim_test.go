package gpusim

import (
	"testing"
	"testing/quick"
	"time"

	"mccs/internal/sim"
)

func newDev(s *sim.Scheduler) *Device { return NewDevice(s, 0, DefaultConfig()) }

func TestAllocAccounting(t *testing.T) {
	s := sim.New()
	d := newDev(s)
	b1, err := d.Alloc(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if d.Allocated() != 1<<20 {
		t.Errorf("allocated = %d, want %d", d.Allocated(), 1<<20)
	}
	if b1.Backed() {
		t.Error("plain Alloc should be unbacked")
	}
	if err := b1.Free(); err != nil {
		t.Fatal(err)
	}
	if d.Allocated() != 0 {
		t.Errorf("allocated after free = %d, want 0", d.Allocated())
	}
	if err := b1.Free(); err == nil {
		t.Error("double free accepted")
	}
}

func TestAllocOOM(t *testing.T) {
	s := sim.New()
	d := NewDevice(s, 0, DeviceConfig{MemoryBytes: 1024, MemBandwidth: 1e9, LaunchLatency: 0})
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
	d := NewDevice(s, 0, DeviceConfig{MemoryBytes: 1 << 30, MemBandwidth: 1e9, LaunchLatency: time.Microsecond})
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

func TestCopyAndReduceKernels(t *testing.T) {
	s := sim.New()
	d := newDev(s)
	st := d.NewStream("s")
	src, _ := d.AllocBacked(32)
	dst, _ := d.AllocBacked(32)
	for i := range src.Data() {
		src.Data()[i] = float32(i + 1)
	}
	s.Go("host", func(p *sim.Proc) {
		st.Copy(dst, 0, src, 0, 8)
		st.Reduce(dst, 2, src, 0, 4) // dst[2:6] += src[0:4]
		st.Synchronize(p)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []float32{1, 2, 4, 6, 8, 10, 7, 8}
	for i, w := range want {
		if dst.Data()[i] != w {
			t.Errorf("dst[%d] = %g, want %g", i, dst.Data()[i], w)
		}
	}
}

func TestEventCrossStream(t *testing.T) {
	s := sim.New()
	d := NewDevice(s, 0, DeviceConfig{MemoryBytes: 1 << 30, MemBandwidth: 1e9, LaunchLatency: 0})
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
	d := NewDevice(s, 0, DeviceConfig{MemoryBytes: 1 << 30, MemBandwidth: 1e9, LaunchLatency: 0})
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
	d := NewDevice(s, 0, DeviceConfig{MemoryBytes: 1 << 30, MemBandwidth: 1e9, LaunchLatency: 0})
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

// Property: a pipeline of alternating copy/reduce kernels over backed
// buffers computes the same result as a sequential reference, for any
// sizes.
func TestQuickKernelDataCorrectness(t *testing.T) {
	f := func(vals []float32) bool {
		if len(vals) == 0 {
			vals = []float32{1}
		}
		if len(vals) > 256 {
			vals = vals[:256]
		}
		n := int64(len(vals))
		s := sim.New()
		d := newDev(s)
		src, _ := d.AllocBacked(n * 4)
		dst, _ := d.AllocBacked(n * 4)
		copy(src.Data(), vals)
		st := d.NewStream("s")
		ok := true
		s.Go("host", func(p *sim.Proc) {
			st.Copy(dst, 0, src, 0, n)
			st.Reduce(dst, 0, src, 0, n) // dst = 2*src
			st.Reduce(dst, 0, dst, 0, n) // dst = 4*src
			st.Synchronize(p)
			for i := range vals {
				if dst.Data()[i] != 4*vals[i] {
					ok = false
				}
			}
		})
		if err := s.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
