// Package workload models the training jobs the paper evaluates with: a
// VGG-19 data-parallel job and GPT-2.7B tensor-parallel fine-tuning jobs
// (§6.1), plus the synthetic production profiles behind Fig. 2. The
// large-scale simulation's ResNet-50 jobs run at flow level in
// internal/cluster and need no trace.
//
// The paper collected these as PyTorch/DeepSpeed/Megatron profile traces
// and replayed them with a Rust traffic generator on MCCS. We synthesize
// equivalent traces from the models' actual layer dimensions — what the
// JCT experiments depend on is the collective sizes and the compute gaps
// between them, both of which the architectures determine.
package workload

import (
	"fmt"
	"time"

	"mccs/internal/collective"
)

// PhaseKind labels one segment of a training iteration.
type PhaseKind int

const (
	// Compute is GPU computation (forward/backward).
	Compute PhaseKind = iota
	// Memcpy is a host-device copy (data loading, optimizer offload).
	Memcpy
	// Idle is a GPU stall (input pipeline, host-side scheduling).
	Idle
	// Collective is a communication phase.
	Collective
)

// Phase is one segment of a training iteration.
type Phase struct {
	Kind PhaseKind
	// Duration applies to Compute/Memcpy phases.
	Duration time.Duration
	// Op and Bytes apply to Collective phases; Bytes is the output
	// buffer size.
	Op    collective.Op
	Bytes int64
	// Overlap marks a collective that the framework overlaps with
	// subsequent compute (bucketed gradient all-reduce): the runner
	// issues it asynchronously and only joins at the iteration end.
	Overlap bool
}

// Trace is one iteration's phase list; training repeats it.
type Trace struct {
	Name   string
	Phases []Phase
}

// Validate reports a trace the runner cannot replay on ranks ranks: no
// phases, a timed phase without a duration, or a collective whose op the
// runner does not issue, whose size is not a positive whole number of
// 4-byte elements, or, for an AllGather, less than one element per rank.
func (t *Trace) Validate(ranks int) error {
	if len(t.Phases) == 0 {
		return fmt.Errorf("workload: trace %q has no phases", t.Name)
	}
	for i, p := range t.Phases {
		switch p.Kind {
		case Compute, Memcpy, Idle:
			if p.Duration <= 0 {
				return fmt.Errorf("workload: %q phase %d has duration %v", t.Name, i, p.Duration)
			}
		case Collective:
			switch {
			case p.Bytes <= 0 || p.Bytes%4 != 0:
				return fmt.Errorf("workload: %q phase %d has %d bytes, not a positive multiple of 4", t.Name, i, p.Bytes)
			case p.Op < collective.AllReduce || p.Op > collective.Reduce:
				return fmt.Errorf("workload: %q phase %d has unsupported collective %v", t.Name, i, p.Op)
			case p.Op == collective.AllGather && p.Bytes/4 < int64(ranks):
				return fmt.Errorf("workload: %q phase %d: %d bytes is less than one element per rank of a %d-rank AllGather", t.Name, i, p.Bytes, ranks)
			}
		default:
			return fmt.Errorf("workload: %q phase %d has unknown kind %d", t.Name, i, p.Kind)
		}
	}
	return nil
}

// VGG19DataParallel models one iteration of VGG-19 data-parallel training
// (the paper's tenant A): ~143.7 M parameters = 574.9 MB of fp32
// gradients, bucketed by DeepSpeed into ~4 all-reduce buckets that overlap
// the backward pass, behind a forward+backward compute block.
//
// computeScale stretches the compute time (1.0 = RTX-3090-class batch
// time).
func VGG19DataParallel(computeScale float64) Trace {
	const gradBytes = 574_900_000
	const buckets = 4
	// VGG-19's compute-to-gradient ratio makes data-parallel training
	// communication-sensitive: the bucketed all-reduces do not fully
	// hide under the backward pass, so network policy changes move the
	// iteration time (which is exactly why the paper picked it).
	fwdBwd := scaleDur(110*time.Millisecond, computeScale)
	per := fwdBwd / (buckets + 1)
	t := Trace{Name: "vgg19-dp"}
	// Data loading copy.
	t.Phases = append(t.Phases, Phase{Kind: Memcpy, Duration: 8 * time.Millisecond})
	// Backward interleaves compute segments with overlapped gradient
	// bucket all-reduces.
	for b := 0; b < buckets; b++ {
		t.Phases = append(t.Phases, Phase{Kind: Compute, Duration: per})
		t.Phases = append(t.Phases, Phase{
			Kind: Collective, Op: collective.AllReduce,
			Bytes: gradBytes / buckets, Overlap: true,
		})
	}
	t.Phases = append(t.Phases, Phase{Kind: Compute, Duration: per})
	return t
}

// GPT27BTensorParallel models one iteration of 2.7 B-parameter GPT
// fine-tuning with 2-way tensor parallelism (the paper's tenants B and C):
// 32 transformer layers, hidden size 2560; each layer performs one
// activation all-reduce in forward and one in backward (Megatron fuses the
// pair per layer per pass), each of batch x seq x hidden activations.
func GPT27BTensorParallel(computeScale float64) Trace {
	const (
		layers = 32
		hidden = 2560
		seq    = 1024
		batch  = 4
	)
	actBytes := int64(batch * seq * hidden * 4) // fp32 activations = 40 MB
	// Tensor-parallel fine-tuning is communication-dominated: the
	// activation all-reduces sit on the critical path and dwarf the
	// per-layer matmuls.
	layerCompute := scaleDur(4*time.Millisecond, computeScale)
	t := Trace{Name: "gpt2.7b-tp"}
	t.Phases = append(t.Phases, Phase{Kind: Memcpy, Duration: 4 * time.Millisecond})
	for l := 0; l < layers; l++ {
		// Forward half of the layer, then the TP all-reduce; these are
		// on the critical path (not overlappable).
		t.Phases = append(t.Phases, Phase{Kind: Compute, Duration: layerCompute / 2})
		t.Phases = append(t.Phases, Phase{Kind: Collective, Op: collective.AllReduce, Bytes: actBytes})
		t.Phases = append(t.Phases, Phase{Kind: Compute, Duration: layerCompute / 2})
		t.Phases = append(t.Phases, Phase{Kind: Collective, Op: collective.AllReduce, Bytes: actBytes})
	}
	return t
}

// ProductGroupProfiles synthesizes the four anonymous production model
// profiles behind Fig. 2 (training-time breakdown at a large social
// network company). The fractions of exposed compute, memcpy,
// communication and idle differ per group; these profiles generate
// workloads whose measured breakdown reproduces the figure's shape:
// communication is a significant fraction everywhere and dominant in the
// recommendation-style groups.
func ProductGroupProfiles() []Trace {
	mk := func(name string, compute, memcpy, idle time.Duration, commBytes int64, buckets int) Trace {
		t := Trace{Name: name}
		if memcpy > 0 {
			t.Phases = append(t.Phases, Phase{Kind: Memcpy, Duration: memcpy})
		}
		if idle > 0 {
			t.Phases = append(t.Phases, Phase{Kind: Idle, Duration: idle})
		}
		per := compute / time.Duration(buckets)
		for b := 0; b < buckets; b++ {
			t.Phases = append(t.Phases, Phase{Kind: Compute, Duration: per})
			t.Phases = append(t.Phases, Phase{Kind: Collective, Op: collective.AllReduce, Bytes: commBytes / int64(buckets)})
		}
		return t
	}
	return []Trace{
		// Group A: ranking model, communication heavy with input stalls.
		mk("group-A", 60*time.Millisecond, 10*time.Millisecond, 12*time.Millisecond, 600<<20, 4),
		// Group B: large embedding tables, memcpy heavy.
		mk("group-B", 80*time.Millisecond, 45*time.Millisecond, 6*time.Millisecond, 300<<20, 4),
		// Group C: vision model, compute heavy, input-bound at times.
		mk("group-C", 220*time.Millisecond, 12*time.Millisecond, 25*time.Millisecond, 180<<20, 3),
		// Group D: balanced NLP model.
		mk("group-D", 140*time.Millisecond, 20*time.Millisecond, 8*time.Millisecond, 350<<20, 4),
	}
}

func scaleDur(d time.Duration, scale float64) time.Duration {
	if scale <= 0 {
		scale = 1
	}
	return time.Duration(float64(d) * scale)
}
