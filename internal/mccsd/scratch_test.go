package mccsd

import (
	"testing"

	"mccs/internal/netsim"
	"mccs/internal/sim"
	"mccs/internal/topo"
	"mccs/internal/trace"
)

// TestScratchOwnsReuse: a deployment's memory outlives it only in the
// Scratch it was given. Two deployments without one share no device
// backing, compared by address; two that share one do — the second
// allocates the backing the first one's Close released. The test keeps
// each backing reachable, so the heap cannot hand the address out again.
// The recorder attached to a deployment's scheduler releases its chunks
// into the same scratch.
func TestScratchOwnsReuse(t *testing.T) {
	const chunkSpans = 1 << 10 // a recorder chunk
	backing := func(mem *Scratch) []float32 {
		cluster, err := topo.BuildClos(topo.TestbedConfig())
		if err != nil {
			t.Fatal(err)
		}
		s := sim.New()
		rec := trace.NewRecorder(trace.LevelFull, 0)
		trace.Attach(s, rec)
		cfg := DefaultConfig()
		cfg.Scratch = mem
		d := NewDeployment(s, cluster, netsim.NewFabric(s, cluster.Net), cfg)
		rec.Emit(trace.Span{Kind: trace.KindOp})
		var data []float32
		launchRanks(s, d, "app", oneGPUPerHost(d)[:1], func(p *sim.Proc, _ int, f *Frontend, gpu topo.GPUID) {
			buf, err := f.MemAlloc(p, gpu, 4096, true)
			if err != nil {
				t.Error(err)
				return
			}
			data = buf.Data()
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		s.Shutdown()
		d.Close()
		rec.Release()
		if data == nil {
			t.Fatal("no backed buffer was allocated")
		}
		return data
	}
	if a, b := backing(nil), backing(nil); &a[0] == &b[0] {
		t.Error("two deployments without a scratch share a device backing")
	}
	mem := new(Scratch)
	if a, b := backing(mem), backing(mem); &a[0] != &b[0] {
		t.Error("a deployment sharing a scratch did not reuse the backing the last one released")
	}
	if mem.chunks.Get(chunkSpans) == nil {
		t.Error("the released recorder left no chunk in the deployment's scratch")
	}
}
