package policy

import (
	"errors"
	"time"

	"mccs/internal/sim"
)

// Plan is a decider's control loop as data: rows run in order, each
// waiting for its trigger, running its action and, when the action returns
// a latch (a reconfiguration installing), waiting for it to open. A plan
// runs as one stackless process (sim.Scheduler.GoStep) that parks where
// the blocking loop it replaces slept or waited, so it schedules the same
// events as that loop and owns no goroutine.
type Plan []Row

// Row is one step of a plan. A nil When fires at once; a nil Do does
// nothing. An error from either ends the plan.
type Row struct {
	When Trigger
	Do   func() (*sim.Latch, error)
}

// Trigger reports whether its row may run; when not, it has parked p and
// is asked again once p wakes.
type Trigger func(p *sim.Proc) (bool, error)

// After fires d after the row is armed.
func After(d time.Duration) Trigger {
	slept := false
	return func(p *sim.Proc) (bool, error) {
		if slept {
			return true, nil
		}
		slept = true
		p.ParkSleep(d)
		return false, nil
	}
}

// Opened fires once l has opened.
func Opened(l *sim.Latch) Trigger {
	return func(p *sim.Proc) (bool, error) { return l.Park(p), nil }
}

// Every polls: it fires once until holds, checked when the row is armed
// and then every d; a failed check runs tick (when non-nil) before the
// poll sleeps.
func Every(d time.Duration, until func() bool, tick func() error) Trigger {
	return func(p *sim.Proc) (bool, error) {
		if until() {
			return true, nil
		}
		if tick != nil {
			if err := tick(); err != nil {
				return false, err
			}
		}
		p.ParkSleep(d)
		return false, nil
	}
}

// ErrStop ends a plan without an error: an action returns it when what
// the rest of its plan acts on never came.
var ErrStop = errors.New("policy: plan stopped")

// Start runs plan as a process named name on s, from now. The first error
// it ends on is kept in *err unless *err holds one already. Controller.Run
// is Start for the deployment's controller; Start alone serves a plan
// whose actions build the controller only when they first decide.
func (plan Plan) Start(s *sim.Scheduler, name string, err *error) {
	row := 0
	var wait *sim.Latch
	end := func(e error) bool {
		if e != ErrStop && *err == nil {
			*err = e
		}
		return true
	}
	s.GoStep(name, func(p *sim.Proc) bool {
		for ; row < len(plan); row++ {
			r := &plan[row]
			if wait == nil {
				if r.When != nil {
					fired, e := r.When(p)
					if e != nil {
						return end(e)
					}
					if !fired {
						return false
					}
				}
				if r.Do != nil {
					var e error
					if wait, e = r.Do(); e != nil {
						return end(e)
					}
				}
			}
			if wait != nil && !wait.Park(p) {
				return false
			}
			wait = nil
		}
		return true
	})
}
