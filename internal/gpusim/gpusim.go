// Package gpusim is a virtual-time stand-in for the CUDA runtime.
//
// The MCCS design (paper §4.1) depends on four CUDA facilities: device
// memory with inter-process memory handles, streams (in-order operation
// queues), events (cross-stream / cross-process synchronization), and
// kernels whose cost scales with the bytes they touch. This package
// reproduces those semantics on the sim scheduler. Buffers can optionally
// be backed by real float32 data so that tests can prove a collective
// produced the mathematically correct result; performance experiments use
// unbacked buffers and only the cost model runs.
//
// Backed storage outlives the buffer that held it: Free, and Device.Reset
// (the cudaDeviceReset analogue a deployment runs when it closes), hand it
// to the device's free list, which its deployment owns (mccsd.Scratch). A
// recycled buffer is cleared and reads exactly like a fresh one, so the
// simulation cannot tell; a buffer is unreadable once freed or reset (Data
// returns nil), and a slice taken from Data before then must not be used
// after it.
package gpusim

import (
	"fmt"
	"time"

	"mccs/internal/freelist"
	"mccs/internal/sim"
	"mccs/internal/trace"
)

// DeviceConfig sets a device's cost model.
type DeviceConfig struct {
	// MemoryBytes is the device memory capacity.
	MemoryBytes int64
	// MemBandwidth is the device-memory bandwidth in bytes/sec used by
	// copy/reduce kernels (RTX 3090-class ≈ 900 GB/s).
	MemBandwidth float64
	// LaunchLatency is the fixed cost of starting any kernel.
	LaunchLatency time.Duration
}

// DefaultConfig approximates the paper's RTX 3090 testbed GPUs.
func DefaultConfig() DeviceConfig {
	return DeviceConfig{
		MemoryBytes:   24 << 30, // 24 GiB
		MemBandwidth:  900e9,
		LaunchLatency: 8 * time.Microsecond,
	}
}

// Device is one simulated GPU.
type Device struct {
	ID         int
	cfg        DeviceConfig
	s          *sim.Scheduler
	allocated  int64
	nextBuf    int32 // 32-bit counters keep a Device in the 80-byte size class
	nextStream int32
	buffers    map[int]*Buffer
	backings   *freelist.List[float32] // backed buffers come from and go back to it; nil recycles none

	// slow divides the effective memory bandwidth; 1 is nominal speed.
	// Fault injection uses it to turn the device into a straggler.
	slow float64
}

// NewDevice creates a device with the given ID, config and free list.
func NewDevice(s *sim.Scheduler, id int, cfg DeviceConfig, backings *freelist.List[float32]) *Device {
	return &Device{ID: id, cfg: cfg, s: s, buffers: make(map[int]*Buffer), backings: backings, slow: 1}
}

// SetSlowdown makes every kernel on the device take factor times longer
// (factor >= 1; values below 1 are clamped to 1). Already-running kernels
// keep their original duration; the change applies to kernels charged
// after the call. A chaos harness scripts this to model straggler GPUs —
// thermal throttling, a noisy co-tenant, a failing HBM stack.
func (d *Device) SetSlowdown(factor float64) {
	if factor < 1 {
		factor = 1
	}
	d.slow = factor
}

// Slowdown returns the current straggler factor (1 = nominal).
func (d *Device) Slowdown() float64 {
	if d.slow < 1 {
		return 1
	}
	return d.slow
}

// Buffer is a device memory allocation. Data is nil unless the buffer was
// allocated backed.
type Buffer struct {
	dev   *Device
	id    int
	bytes int64
	data  []float32 // non-nil only for backed buffers
	refs  int32     // IPC opens + the owner
	uses  int32     // issued operations that still read or write it
	freed bool
}

// Bytes returns the allocation size.
func (b *Buffer) Bytes() int64 { return b.bytes }

// Device returns the owning device.
func (b *Buffer) Device() *Device { return b.dev }

// Acquire counts one more issued operation that reads or writes the
// buffer; Release ends it. InUse is the count: a buffer in use must not
// be freed.
func (b *Buffer) Acquire()   { b.uses++ }
func (b *Buffer) Release()   { b.uses-- }
func (b *Buffer) InUse() int { return int(b.uses) }

// Backed reports whether the buffer carries real data.
func (b *Buffer) Backed() bool { return b.data != nil }

// Data returns the backing float32 slice (nil for unbacked buffers).
func (b *Buffer) Data() []float32 { return b.data }

// Alloc reserves bytes of device memory without data backing.
func (d *Device) Alloc(bytes int64) (*Buffer, error) {
	return d.alloc(bytes, false)
}

// AllocBacked reserves device memory with a real float32 backing array of
// bytes/4 elements, letting kernels move and reduce actual values. bytes
// must be a whole number of elements.
func (d *Device) AllocBacked(bytes int64) (*Buffer, error) {
	return d.alloc(bytes, true)
}

func (d *Device) alloc(bytes int64, backed bool) (*Buffer, error) {
	if bytes <= 0 {
		return nil, fmt.Errorf("gpusim: allocation of %d bytes", bytes)
	}
	if backed && bytes%4 != 0 {
		return nil, fmt.Errorf("gpusim: backed allocation of %d bytes is not a whole number of float32 elements", bytes)
	}
	if bytes > d.cfg.MemoryBytes-d.allocated {
		return nil, fmt.Errorf("gpusim: device %d out of memory: %d in use, %d requested, %d capacity",
			d.ID, d.allocated, bytes, d.cfg.MemoryBytes)
	}
	d.allocated += bytes
	d.nextBuf++
	b := &Buffer{dev: d, id: int(d.nextBuf), bytes: bytes, refs: 1}
	if backed {
		if b.data = d.backings.Get(int(bytes / 4)); b.data != nil {
			clear(b.data)
		} else {
			b.data = make([]float32, bytes/4)
		}
	}
	d.buffers[b.id] = b
	return b, nil
}

// Free releases the buffer. Freeing while IPC handles remain open is an
// error, mirroring CUDA's ownership rules. The backing goes back to the
// device's free list: Data reads nil from here on.
func (b *Buffer) Free() error {
	if b.freed {
		return fmt.Errorf("gpusim: double free of buffer %d on device %d", b.id, b.dev.ID)
	}
	if b.refs > 1 {
		return fmt.Errorf("gpusim: buffer %d on device %d freed with %d IPC handle(s) open",
			b.id, b.dev.ID, b.refs-1)
	}
	b.dev.allocated -= b.bytes
	delete(b.dev.buffers, b.id)
	b.release()
	return nil
}

// release marks the buffer freed and returns its backing.
func (b *Buffer) release() {
	b.freed = true
	b.dev.backings.Put(b.data)
	b.data = nil
}

// Reset frees every buffer still allocated on the device, open IPC
// mappings and in-flight uses notwithstanding (cudaDeviceReset): each one
// reads as freed, its backing back on the device's free list. Call it
// only once nothing will read or write the device's buffers again — a
// closed deployment, its scheduler shut down.
func (d *Device) Reset() {
	for id, b := range d.buffers {
		b.release()
		delete(d.buffers, id)
	}
	d.allocated = 0
}

// MemHandle is an inter-process memory handle (cudaIpcGetMemHandle
// analogue): it lets another protection domain map the same allocation.
type MemHandle struct {
	dev *Device
	id  int
}

// IPCHandle exports the buffer for another process.
func (b *Buffer) IPCHandle() MemHandle { return MemHandle{dev: b.dev, id: b.id} }

// OpenMemHandle maps an exported allocation; the returned buffer aliases
// the same memory. Close the mapping with CloseMemHandle.
func OpenMemHandle(h MemHandle) (*Buffer, error) {
	b, ok := h.dev.buffers[h.id]
	if !ok {
		return nil, fmt.Errorf("gpusim: stale IPC handle (buffer %d, device %d)", h.id, h.dev.ID)
	}
	b.refs++
	return b, nil
}

// CloseMemHandle releases one IPC mapping.
func CloseMemHandle(b *Buffer) error {
	if b.refs <= 1 {
		return fmt.Errorf("gpusim: CloseMemHandle without matching open")
	}
	b.refs--
	return nil
}

// Event reproduces CUDA event semantics: Record captures a point in a
// stream's work queue; waiting (from a stream or from host code) blocks
// until that captured point has executed. Events are shareable across
// processes (cudaIpcGetEventHandle analogue) — in the simulator this is
// simply sharing the object.
type Event struct {
	last *RecordInstance
}

// RecordInstance is one record of an event: pending until the recorded
// point executes, complete from then on. The zero value is a pending record.
// Stream.Record makes its own; a caller that completes records itself
// (Event.ManualRecord) owns the instance and can keep it inside a larger
// object.
type RecordInstance struct {
	done bool
	cbs  []func()
	wq   sim.WaitQueue
}

// NewEvent creates an event. A never-recorded event is "complete" per CUDA
// rules: waits on it return immediately.
func NewEvent() *Event { return &Event{} }

// Fire completes the record, releasing every stream and host wait bound to
// it. Firing twice is a no-op.
func (ri *RecordInstance) Fire(s *sim.Scheduler) {
	if ri.done {
		return
	}
	ri.done = true
	cbs := ri.cbs
	ri.cbs = nil
	for _, cb := range cbs {
		cb()
	}
	ri.wq.WakeAll(s)
}

// Done reports whether the most recent record has completed (true if never
// recorded).
func (e *Event) Done() bool { return e.last == nil || e.last.done }

// WaitHost blocks the calling process until the most recent record
// completes (cudaEventSynchronize).
func (e *Event) WaitHost(p *sim.Proc) {
	e.Snapshot().WaitHost(p)
}

// EventInstance is a point-in-time snapshot of an event's most recent
// record. CUDA wait semantics bind to the record current at call time,
// not to later re-records; callers that hand an event across a delay
// (e.g. the shim passing a stream event to the proxy) must snapshot at
// call time or they can bind to the wrong record.
type EventInstance struct {
	ri *RecordInstance
}

// Snapshot captures the current record instance (zero instance if the
// event was never recorded; waiting on it returns immediately).
func (e *Event) Snapshot() EventInstance { return EventInstance{ri: e.last} }

// Done reports whether the snapshot's record has completed (true for the
// zero instance).
func (ei EventInstance) Done() bool { return ei.ri == nil || ei.ri.done }

// WaitHost blocks until the snapshot's record completes.
func (ei EventInstance) WaitHost(p *sim.Proc) {
	if !ei.Done() {
		ei.ri.wq.Wait(p)
	}
}

// ParkHost is the step-function form of WaitHost (sim.Scheduler.GoStep): true
// if the record has completed; otherwise it parks p until then and reports false.
func (ei EventInstance) ParkHost(p *sim.Proc) (done bool) {
	if ei.Done() {
		return true
	}
	ei.ri.wq.Park(p)
	return false
}

// onDone invokes fn when the snapshot instance completes.
func (ri *RecordInstance) onDone(fn func()) {
	if ri == nil || ri.done {
		fn()
		return
	}
	ri.cbs = append(ri.cbs, fn)
}

// opKind discriminates stream operations.
type opKind int

const (
	opKernel opKind = iota
	opRecord
	opWait
)

type op struct {
	kind opKind
	name string
	dur  time.Duration
	fn   func() // body executed at kernel completion
	ev   *RecordInstance
}

// Stream is an in-order execution queue on one device.
type Stream struct {
	dev   *Device
	name  string
	id    int // per-device stream index, for the flight recorder's rows
	queue []op
	busy  bool
	// depth counts queued plus running ops, for tests.
	depth int
}

// NewStream creates a stream on the device.
func (d *Device) NewStream(name string) *Stream {
	d.nextStream++
	return &Stream{dev: d, name: name, id: int(d.nextStream)}
}

// Depth returns the number of pending operations (including the running
// one).
func (st *Stream) Depth() int { return st.depth }

func (st *Stream) enqueue(o op) {
	st.depth++
	if st.busy {
		st.queue = append(st.queue, o)
		return
	}
	st.start(o)
}

func (st *Stream) start(o op) {
	st.busy = true
	switch o.kind {
	case opKernel:
		t0 := st.dev.s.Now()
		st.dev.s.After(o.dur, func() {
			if o.fn != nil {
				o.fn()
			}
			// Unnamed kernels are synchronization placeholders, not work.
			if o.name != "" {
				if rec := trace.Of(st.dev.s); rec.Enabled(trace.KindKernel) {
					rec.Emit(trace.Span{
						Kind: trace.KindKernel, Op: -1,
						Start: t0, End: st.dev.s.Now(),
						Host: -1, GPU: int32(st.dev.ID),
						Rank: -1, Peer: -1, Channel: -1, Gen: -1, Step: -1,
						Flow: int64(st.id), Label: o.name,
						Src: -1, Dst: -1,
					})
				}
			}
			st.finish()
		})
	case opRecord:
		o.ev.Fire(st.dev.s)
		// Records are instantaneous, but completing them through the
		// scheduler keeps op completion ordering deterministic.
		st.dev.s.After(0, st.finish)
	case opWait:
		o.ev.onDone(func() { st.dev.s.After(0, st.finish) })
	}
}

func (st *Stream) finish() {
	st.depth--
	st.busy = false
	if len(st.queue) > 0 {
		next := st.queue[0]
		copy(st.queue, st.queue[1:])
		st.queue = st.queue[:len(st.queue)-1]
		st.start(next)
	}
}

// Launch enqueues a kernel with an explicit duration and optional body run
// at completion. The device launch latency is added automatically.
func (st *Stream) Launch(name string, dur time.Duration, body func()) {
	st.enqueue(op{kind: opKernel, name: name, dur: st.dev.cfg.LaunchLatency + dur, fn: body})
}

// TransferTime converts a byte count to kernel duration under the device's
// memory bandwidth model. passes is the number of times the bytes cross the
// memory bus (1 for a copy, 2 for a reduce: read both operands). The proxy
// engine charges per-chunk reduce/copy time inside its fused collective
// kernels with it, without enqueuing one Stream op per chunk.
func (d *Device) TransferTime(bytes int64, passes float64) time.Duration {
	sec := float64(bytes) * passes / d.cfg.MemBandwidth * d.Slowdown()
	return time.Duration(sec * float64(time.Second))
}

// ManualRecord installs ri, a pending instance the caller owns, as the
// event's current record (as Record does) without tying its completion to a
// stream position: the caller completes it with ri.Fire. The MCCS service
// uses it to signal collective completion into tenant streams across the
// process boundary: the shim makes the tenant stream WaitEvent on the
// instance, and fires it when the service reports the collective finished.
// The instance is the caller's so that it can live in the record the caller
// already keeps per operation, not in an allocation (and a closure) of its
// own.
func (e *Event) ManualRecord(ri *RecordInstance) { e.last = ri }

// Record enqueues an event record (cudaEventRecord): the event's new
// instance completes when all prior work on the stream has executed.
func (st *Stream) Record(e *Event) {
	ri := &RecordInstance{}
	e.last = ri
	st.enqueue(op{kind: opRecord, ev: ri})
}

// WaitEvent enqueues a wait (cudaStreamWaitEvent): subsequent ops on this
// stream do not run until the event's snapshot at call time has completed.
// Per CUDA rules, a never-recorded event does not block.
func (st *Stream) WaitEvent(e *Event) {
	ri := e.last
	if ri == nil || ri.done {
		// Nothing to wait for; keep stream ordering with a zero kernel.
		st.enqueue(op{kind: opKernel, dur: 0})
		return
	}
	st.enqueue(op{kind: opWait, ev: ri})
}

// Synchronize blocks the calling process until every operation currently
// enqueued on the stream has completed (cudaStreamSynchronize).
func (st *Stream) Synchronize(p *sim.Proc) {
	e := NewEvent()
	st.Record(e)
	e.WaitHost(p)
}
