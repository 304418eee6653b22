package proxy

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"mccs/internal/collective"
	"mccs/internal/gpusim"
	"mccs/internal/sim"
	"mccs/internal/spec"
	"mccs/internal/topo"
)

// TestQuickReconfigStorm fires a random interleaving of collectives and
// reconfigurations (with random per-rank delivery skew, random ring
// orders, routes, channel counts and algorithms) and requires that (a) everything completes,
// (b) every AllReduce still computes the exact elementwise sum, and
// (c) all ranks converge to the same generation. This is the adversarial
// version of the paper's Fig. 4 scenario.
func TestQuickReconfigStorm(t *testing.T) {
	f := func(seed int64, opsRaw, reconfRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		nOps := int(opsRaw%6) + 2
		nReconf := int(reconfRaw%3) + 1
		r := newRigQuiet()
		gpuList := fourGPUs(r)
		comm := quietComm(r, gpuList)
		const count = 128

		type step struct {
			reconf bool
			strat  spec.Strategy
		}
		var script []step
		for i := 0; i < nOps; i++ {
			script = append(script, step{})
		}
		for i := 0; i < nReconf; i++ {
			// One channel or two (the program runs inline in the pipeline, or
			// as spawned processes joined on the rank's latch), under any of
			// the three schedule families: the executor's per-rank latch,
			// processes, program buffers and peer tables carry over from
			// whatever shape the previous generation had.
			var strat spec.Strategy
			for ch := 1 + rng.Intn(2); ch > 0; ch-- {
				strat.Channels = append(strat.Channels, spec.ChannelSpec{Order: rng.Perm(4), Route: rng.Intn(2)})
			}
			switch rng.Intn(3) {
			case 1:
				strat.Algorithm = spec.AlgoHD
			case 2:
				strat.TreeThreshold = 1 << 20 // the 512-byte AllReduces take the tree
			}
			pos := rng.Intn(len(script) + 1)
			script = append(script[:pos], append([]step{{reconf: true, strat: strat}}, script[pos:]...)...)
		}

		// Per-op buffers so each AllReduce is independently checkable.
		type opBufs struct {
			bufs []*gpusim.Buffer
			want []float32
		}
		var allOps []opBufs
		for _, st := range script {
			if st.reconf {
				continue
			}
			ob := opBufs{want: make([]float32, count)}
			for _, g := range gpuList {
				b, err := r.devices[g].AllocBacked(count * 4)
				if err != nil {
					return false
				}
				for j := range b.Data() {
					v := float32(rng.Intn(8))
					b.Data()[j] = v
					ob.want[j] += v
				}
				ob.bufs = append(ob.bufs, b)
			}
			allOps = append(allOps, ob)
		}

		var futs []*opDone
		var latches []*sim.Latch
		ok := true
		r.s.Go("driver", func(p *sim.Proc) {
			opIdx := 0
			for _, st := range script {
				if st.reconf {
					latch := sim.NewLatch(len(comm.Runners))
					latches = append(latches, latch)
					for ri, rn := range comm.Runners {
						rn := rn
						strat := st.strat.Clone()
						delay := time.Duration(rng.Intn(300)) * time.Microsecond
						_ = ri
						r.s.After(delay, func() {
							rn.Enqueue(&ReconfigRequest{Strategy: strat, Done: latch})
						})
					}
					// Random think time between script entries.
					p.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
					continue
				}
				ob := allOps[opIdx]
				opIdx++
				for i, rn := range comm.Runners {
					fut := newOpDone(r.s)
					futs = append(futs, fut)
					rn.Enqueue(&OpRequest{
						Op: collective.AllReduce, Count: count,
						SendBuf: ob.bufs[i], RecvBuf: ob.bufs[i], OnComplete: fut,
					})
				}
				p.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
			}
			for _, f := range futs {
				f.Wait(p)
			}
			for _, l := range latches {
				l.Wait(p)
			}
			// Generations converged.
			gen := comm.Runners[0].Generation()
			for _, rn := range comm.Runners {
				if rn.Generation() != gen {
					ok = false
				}
			}
			// Every AllReduce exact.
			for _, ob := range allOps {
				for _, b := range ob.bufs {
					for j := range ob.want {
						if b.Data()[j] != ob.want[j] {
							ok = false
						}
					}
				}
			}
		})
		if err := r.s.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// helpers keeping the property body readable

func fourGPUs(r *rig) []topo.GPUID {
	var gpus []topo.GPUID
	for _, h := range r.cluster.Hosts {
		gpus = append(gpus, h.GPUs[0])
	}
	return gpus
}

func quietComm(r *rig, gpus []topo.GPUID) *Comm {
	info := spec.CommInfo{ID: 7, App: "storm"}
	for i, g := range gpus {
		info.Ranks = append(info.Ranks, spec.RankInfo{
			Rank: i, GPU: g,
			Host: r.cluster.HostOfGPU(g),
			NIC:  r.cluster.NICOfGPU(g),
		})
	}
	info.Strategy = spec.Strategy{Channels: []spec.ChannelSpec{{Order: []int{0, 1, 2, 3}, Route: 0}}}
	comm, err := NewComm(r.s, r.cluster, r.engines, r.devices, info, DefaultConfig())
	if err != nil {
		panic(err)
	}
	return comm
}
