// Package tuner implements the provider-side strategy autotuner: an α-β
// (latency–bandwidth) cost model evaluated against the simulated
// topology, a candidate generator over ring orders / channel counts /
// route pins / algorithms (ring, binomial tree, halving-doubling), and
// a deterministic search that ranks candidates by predicted completion
// time.
//
// The paper's headline claim is that the *provider* can pick the best
// collective strategy for each tenant using knowledge the tenant cannot
// see — topology, link capacities, external load from co-located jobs.
// This package is that decision layer. It deliberately depends only on
// the shared vocabulary (spec), the topology/network model and the
// collective schedules: the policy controller composes it with the
// management plane (install the winner, observe achieved cost), keeping
// the paper's policy/mechanism split intact.
//
// Everything is deterministic: candidate enumeration order is fixed,
// scores are pure arithmetic over the topology, and ties break on the
// candidate name — the same inputs always produce the same winner, so
// seeded runs stay byte-identical with autotuning on.
package tuner

import (
	"fmt"
	"sort"
	"time"

	"mccs/internal/collective"
	"mccs/internal/spec"
)

// Candidate is one strategy under consideration, with a stable
// human-readable name (e.g. "ring/locality/ch2/pin") that telemetry and
// trace spans carry so operators can see why a strategy was picked.
type Candidate struct {
	Name     string
	Strategy spec.Strategy
}

// Scored is a candidate with its predicted completion time for the
// tuned operation.
type Scored struct {
	Candidate
	Predicted time.Duration
}

// Decision is the full, ordered outcome of one search: every candidate
// scored, best first.
type Decision struct {
	// Scored is sorted by ascending predicted time, candidate name
	// breaking ties.
	Scored []Scored
}

// Winner returns the best-scoring candidate.
func (d *Decision) Winner() Scored { return d.Scored[0] }

// Search scores every candidate under the model and returns the ranked
// decision. The search is exhaustive over the (small, bounded)
// candidate list — determinism and explainability beat cleverness at
// this scale.
func (m *Model) Search(info *spec.CommInfo, cands []Candidate, op collective.Op, bytes int64) (Decision, error) {
	if len(cands) == 0 {
		return Decision{}, fmt.Errorf("tuner: no candidates")
	}
	d := Decision{Scored: make([]Scored, 0, len(cands))}
	for _, c := range cands {
		if err := c.Strategy.Validate(info.NumRanks()); err != nil {
			return Decision{}, fmt.Errorf("tuner: candidate %q: %w", c.Name, err)
		}
		d.Scored = append(d.Scored, Scored{Candidate: c, Predicted: m.Predict(info, &c.Strategy, op, 0, bytes)})
	}
	sort.SliceStable(d.Scored, func(i, j int) bool {
		if d.Scored[i].Predicted != d.Scored[j].Predicted {
			return d.Scored[i].Predicted < d.Scored[j].Predicted
		}
		return d.Scored[i].Name < d.Scored[j].Name
	})
	return d, nil
}
