package chaos

import (
	"math"
	"strings"
	"testing"
	"time"

	"mccs/internal/sim"
	"mccs/internal/telemetry"
)

// TestCheckTelemetryNamesTheColumn: checkTelemetry reads only column kinds
// on a clean series, and a failure still names the column it found, a
// histogram's _sum included.
func TestCheckTelemetryNamesTheColumn(t *testing.T) {
	for _, tc := range []struct {
		name string
		bad  func(g *telemetry.Gauge, h *telemetry.Histogram)
		want string
	}{
		{"clean", func(g *telemetry.Gauge, h *telemetry.Histogram) { g.Add(-3) }, ""},
		{"non-finite", func(g *telemetry.Gauge, h *telemetry.Histogram) { g.Set(math.NaN()) }, `column "depth": non-finite value NaN`},
		{"decrease", func(g *telemetry.Gauge, h *telemetry.Histogram) { h.Observe(-5) }, `column "lat_seconds_sum": counter decreased 3 -> -2`},
	} {
		s := sim.New()
		reg := telemetry.NewRegistry()
		telemetry.Attach(s, reg)
		g := reg.Gauge("depth", "commands")
		h := reg.Histogram("lat_seconds", "seconds", []float64{1})
		sm := telemetry.StartSampler(s, reg, time.Microsecond)
		s.At(sim.Time(2*time.Microsecond), func() { g.Set(4); h.Observe(3) })
		s.At(sim.Time(4*time.Microsecond), func() { tc.bad(g, h) })
		s.At(sim.Time(6*time.Microsecond), func() {})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		err := checkTelemetry(sm)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
		s.Shutdown()
	}
}
