package spec_test

import (
	"testing"

	"mccs/internal/collective"
	"mccs/internal/spec"
)

// FuzzStrategyValidate: a strategy Validate accepts is one the proxy can
// build — collective.Rings succeeds on it and collective.Edges walks every
// connection it needs without panicking — and every edge names ranks of the
// communicator, and every route it names is a path index or RouteECMP (the
// transport indexes its path table with it). The orders bytes are cut into
// nranks-long channel rings, each byte one (signed) rank; routes[c] % 4
// (signed, so in [-3, 3]) is channel c's route, RouteECMP past its end.
func FuzzStrategyValidate(f *testing.F) {
	f.Add(4, uint8(0), int64(0), []byte{0, 1, 2, 3, 3, 2, 1, 0}, []byte{1, 0xff})
	f.Add(6, uint8(1), int64(1<<20), []byte{5, 0, 4, 1, 3, 2, 0, 1, 2, 3, 4, 5}, []byte{0xfe})
	f.Add(2, uint8(0), int64(-1), []byte{1, 0}, []byte{0xfd})
	f.Add(1, uint8(1), int64(1), []byte{0}, []byte{3})
	f.Add(0, uint8(0), int64(0), []byte{}, []byte{})
	f.Add(3, uint8(2), int64(0), []byte{0, 1, 2}, []byte{2})
	f.Add(2, uint8(0), int64(0), []byte{0, 0xff}, []byte{})
	f.Fuzz(func(t *testing.T, nranks int, algo uint8, treeThreshold int64, orders, routes []byte) {
		if nranks > 64 {
			nranks %= 64
		}
		st := spec.Strategy{Algorithm: spec.Algorithm(algo), TreeThreshold: treeThreshold}
		for step := max(nranks, 1); len(orders) >= step && len(st.Channels) < 8; orders = orders[step:] {
			order := make([]int, max(nranks, 0))
			for i := range order {
				order[i] = int(int8(orders[i]))
			}
			route := spec.RouteECMP
			if c := len(st.Channels); c < len(routes) {
				route = int(int8(routes[c])) % 4
			}
			st.Channels = append(st.Channels, spec.ChannelSpec{Order: order, Route: route})
		}
		if st.Validate(nranks) != nil {
			return
		}
		for c, ch := range st.Channels {
			if ch.Route < spec.RouteECMP {
				t.Fatalf("Validate(%d) accepted channel %d route %d", nranks, c, ch.Route)
			}
		}
		rings, err := collective.Rings(nil, &st)
		if err != nil {
			t.Fatalf("Validate(%d) accepted %+v, Rings rejects it: %v", nranks, st, err)
		}
		for _, e := range collective.Edges(&st, rings) {
			if e.From < 0 || e.From >= nranks || e.To < 0 || e.To >= nranks || e.From == e.To || e.Channel >= len(st.Channels) {
				t.Fatalf("strategy %+v over %d ranks needs edge %+v", st, nranks, e)
			}
		}
	})
}
