package gpusim

import (
	"testing"
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
