package telemetry

import (
	"bytes"
	"testing"
	"time"

	"mccs/internal/sim"
)

// goldenJSONL is a small export with every line kind: a counter and a
// histogram sampled over a few windows, one link, one SLO violation.
func goldenJSONL(tb testing.TB) []byte {
	s := sim.New()
	r := NewRegistry()
	Attach(s, r)
	c := r.Counter("mccs_ops_total", "ops", L("tenant", "a"))
	h := r.Histogram("mccs_op_seconds", "seconds", []float64{1e-3, 1e-2}, L("tenant", "a"))
	r.SetLinks([]LinkInfo{{ID: 3, Name: "sw0->sw1", CapBps: 12.5e9}})
	sm := StartSampler(s, r, time.Millisecond)
	s.Go("w", func(p *sim.Proc) {
		c.Inc()
		h.Observe(2e-3)
		p.Sleep(2500 * time.Microsecond)
		r.SLO.ObserveLink(p.Now(), 3, "sw0->sw1", 12.5e9, 12.4e9, []TenantShare{
			{Tenant: "a", Bps: 1e9, Bottlenecked: true},
			{Tenant: "b", Bps: 11e9},
		})
		p.Sleep(time.Millisecond)
	})
	if err := s.Run(); err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, sm); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadJSONL feeds arbitrary bytes to the telemetry parser: it must
// never panic, the series it accepts must be safe to query, and writing
// that series back out must reach a fixed point after one re-read.
func FuzzReadJSONL(f *testing.F) {
	f.Add(goldenJSONL(f))
	f.Add([]byte(`{"kind":"schema","interval_ns":1000,"cols":[]}`))
	f.Add([]byte("{\"kind\":\"schema\",\"cols\":[{\"name\":\"x\",\"kind\":\"gauge\",\"labels\":[{\"Key\":\"a\",\"Value\":\"\\ud800\"}]}]}\n\n" +
		"{\"kind\":\"violation\",\"t_ns\":9,\"link\":-4}\n{\"kind\":\"sample\",\"t_ns\":5,\"v\":[1,-0,1e300]}\n{\"kind\":\"sample\",\"t_ns\":2,\"v\":null}\n"))
	f.Add([]byte(`{"kind":"sample","t_ns":1,"v":[1]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		se, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		for c := range se.Cols {
			se.LabelValue(c, "tenant")
			se.FindCols(se.Cols[c].Name, se.Cols[c].Labels...)
			for _, smp := range se.Samples {
				se.Value(smp, c)
			}
		}
		var first bytes.Buffer
		if err := se.write(&first, 0, 0); err != nil {
			t.Fatalf("an accepted series does not export: %v", err)
		}
		back, err := ReadJSONL(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("our own export does not parse: %v", err)
		}
		if back.Interval != se.Interval || len(back.Cols) != len(se.Cols) || len(back.Links) != len(se.Links) ||
			len(back.Samples) != len(se.Samples) || len(back.Violations) != len(se.Violations) {
			t.Fatalf("round trip changed the series: %+v -> %+v", se, back)
		}
		var second bytes.Buffer
		if err := back.write(&second, 0, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("the export of a re-read export differs")
		}
	})
}
