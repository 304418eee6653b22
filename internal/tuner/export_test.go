package tuner

import (
	"time"

	"mccs/internal/collective"
	"mccs/internal/spec"
)

// ReferencePredict is referencePredict (reference_test.go) for the tests of
// package tuner_test, which build the production model and candidates.
func (m *Model) ReferencePredict(info *spec.CommInfo, st *spec.Strategy, op collective.Op, root int, bytes int64) time.Duration {
	return m.referencePredict(info, st, op, root, bytes)
}
