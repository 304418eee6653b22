package remediation

import (
	"testing"
	"time"

	"mccs/internal/sim"
)

// TestBackoffDoublesAndCaps pins the escalation spacing: attempt n waits
// Cooldown×2^n, saturating at BackoffMax, and overflow of the shift can
// never produce a zero or negative wait.
func TestBackoffDoublesAndCaps(t *testing.T) {
	cfg := Config{BackoffMax: 10 * time.Millisecond}
	want := []sim.Duration{
		sim.Duration(500 * time.Microsecond),
		sim.Duration(1 * time.Millisecond),
		sim.Duration(2 * time.Millisecond),
		sim.Duration(4 * time.Millisecond),
		sim.Duration(8 * time.Millisecond),
		sim.Duration(10 * time.Millisecond), // capped
		sim.Duration(10 * time.Millisecond),
	}
	var ep episode
	for i, w := range want {
		ep.attempts = i
		if got := ep.backoff(&cfg); got != w {
			t.Errorf("attempt %d: backoff %v, want %v", i, got, w)
		}
	}
	// Shift overflow: huge attempt counts still return the cap, not 0.
	for _, n := range []int{32, 63, 64, 200} {
		ep.attempts = n
		if got := ep.backoff(&cfg); got != sim.Duration(cfg.BackoffMax) {
			t.Errorf("attempt %d: backoff %v, want cap %v", n, got, cfg.BackoffMax)
		}
	}
}

// TestDefaultConfigFilled: Attach takes its Config as given, and every
// caller starts from DefaultConfig, so every knob there must be positive —
// a zero would be a dead engine (interval 0 = busy loop, tolerance 0 =
// everything quarantined) — and the backoff cap may not undercut the
// base spacing.
func TestDefaultConfigFilled(t *testing.T) {
	cfg := DefaultConfig()
	checks := []struct {
		name string
		ok   bool
	}{
		{"Interval", cfg.Interval > 0},
		{"linkTolerance", linkTolerance > 0 && linkTolerance < 1},
		{"BackoffMax", cfg.BackoffMax >= Cooldown},
		{"MaxActions", cfg.MaxActions > 0},
	}
	for _, c := range checks {
		if !c.ok {
			t.Errorf("DefaultConfig.%s not sane: %+v", c.name, cfg)
		}
	}
}
