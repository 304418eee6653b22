package tuner_test

import (
	"reflect"
	"sort"
	"testing"

	"mccs/internal/allocpin"
	"mccs/internal/collective"
	"mccs/internal/netsim"
	"mccs/internal/policy"
	"mccs/internal/spec"
	"mccs/internal/tuner"
)

// TestPredictMatchesReference: Predict, which lowers one program at a time
// into the model's reused workspace and loads links through dense tables,
// gives exactly the durations of referencePredict, which lowered every
// program at once and kept its loads in maps. Every candidate of the Fig. 6
// 8-GPU space is priced at four sizes for AllReduce and AllGather, on an
// idle fabric and under an external load that leaves some links above
// capacity (the minBps floor), through one model so the workspace carries
// over from candidate to candidate and size to size. Each Search ranking
// must also equal the one built from the reference's durations.
func TestPredictMatchesReference(t *testing.T) {
	for _, op := range []collective.Op{collective.AllReduce, collective.AllGather} {
		m, _, info := prodTuner(t, policy.AutotuneOptions{Op: op, Bytes: 1})
		loaded := func(l netsim.LinkID) float64 {
			return float64(int(l)%5) * 0.3 * m.Cluster.Net.Link(l).Capacity
		}
		for _, bytes := range []int64{32 << 10, 512 << 10, 8 << 20, 128 << 20} {
			_, cands, _ := prodTuner(t, policy.AutotuneOptions{Op: op, Bytes: bytes})
			if len(cands) != 17 {
				t.Fatalf("%v %d: %d candidates, want the 17 of the Fig. 6 space", op, bytes, len(cands))
			}
			for _, ext := range []struct {
				name string
				load func(netsim.LinkID) float64
			}{{"idle", nil}, {"loaded", loaded}} {
				m.ExtLoad = ext.load
				for _, c := range cands {
					got := m.Predict(info, &c.Strategy, op, 0, bytes)
					if want := m.ReferencePredict(info, &c.Strategy, op, 0, bytes); got != want {
						t.Errorf("%v %d %s %s: Predict %v, reference %v", op, bytes, ext.name, c.Name, got, want)
					}
				}
				d, err := m.Search(info, cands, op, bytes)
				if err != nil {
					t.Fatal(err)
				}
				if want := referenceSearch(m, info, cands, op, bytes); !reflect.DeepEqual(d, want) {
					t.Errorf("%v %d %s: Search ranking differs from the reference's:\n%v\n%v", op, bytes, ext.name, d.Scored, want.Scored)
				}
			}
		}
	}
}

// referenceSearch is Search scored with referencePredict.
func referenceSearch(m *tuner.Model, info *spec.CommInfo, cands []tuner.Candidate, op collective.Op, bytes int64) tuner.Decision {
	var d tuner.Decision
	for _, c := range cands {
		d.Scored = append(d.Scored, tuner.Scored{Candidate: c, Predicted: m.ReferencePredict(info, &c.Strategy, op, 0, bytes)})
	}
	sort.SliceStable(d.Scored, func(i, j int) bool {
		if d.Scored[i].Predicted != d.Scored[j].Predicted {
			return d.Scored[i].Predicted < d.Scored[j].Predicted
		}
		return d.Scored[i].Name < d.Scored[j].Name
	})
	return d
}

// TestSearchAllocatesPerSearch: once the model's workspace has grown, a
// Search allocates per search, not per candidate — the same count for 8
// candidates as for the 17 of the Fig. 6 space.
func TestSearchAllocatesPerSearch(t *testing.T) {
	const bytes = 64 << 20
	m, cands, info := prodTuner(t, policy.AutotuneOptions{Op: collective.AllReduce, Bytes: bytes})
	search := func(cands []tuner.Candidate) func() {
		return func() {
			if _, err := m.Search(info, cands, collective.AllReduce, bytes); err != nil {
				t.Fatal(err)
			}
		}
	}
	search(cands)()
	few, all := allocpin.Min(10, search(cands[:8])), allocpin.Min(10, search(cands))
	if few != all {
		t.Errorf("a warm Search allocates %v times for 8 candidates and %v times for %d", few, all, len(cands))
	}
	t.Logf("a warm Search allocates %v times", all)
}
