package chaos

import (
	"fmt"

	"mccs/internal/remediation"
	"mccs/internal/sim"
)

// FaultOpenEnd marks a fault window with no injector-known end (send
// perturbations run until drain; a reconfiguration's cost ends whenever
// its barrier completes). Ground-truth checks treat such windows as
// extending to the end of the run.
const FaultOpenEnd = sim.Time(1) << 62

// FaultRecord is one injected fault window, captured by the injectors as
// labeled ground truth for the diagnosis engine: every record carries
// the blamed entity the doctor is expected to recover. Records are
// appended in schedule order (install-time faults at install, storm /
// autotune requests at request time), then the congestion scenarios'
// remediation actions when the run ends, so the log is deterministic for
// a fixed seed — and recording is purely observational: it consumes no
// PRNG draws and schedules no events, so fault schedules and trace hashes
// are unchanged.
type FaultRecord struct {
	// Kind is one of "link-flap", "straggler", "send-delay", "reconfig",
	// "autotune", "congestion", "remediation".
	Kind       string
	Start, End sim.Time
	Link       int32 // flapped/congested link, -1 n/a
	Rank       int32 // slowed rank, -1 n/a
	Factor     float64
	Frac       float64
}

func (f FaultRecord) String() string {
	end := "drain"
	if f.End != FaultOpenEnd {
		end = fmt.Sprint(f.End.Sub(0))
	}
	switch f.Kind {
	case "link-flap":
		return fmt.Sprintf("link-flap link %d to %.0f%% [%v, %s]", f.Link, f.Frac*100, f.Start.Sub(0), end)
	case "straggler":
		return fmt.Sprintf("straggler rank %d x%.1f [%v, %s]", f.Rank, f.Factor, f.Start.Sub(0), end)
	case "congestion":
		return fmt.Sprintf("congestion link %d [%v, %s]", f.Link, f.Start.Sub(0), end)
	default:
		return fmt.Sprintf("%s [%v, %s]", f.Kind, f.Start.Sub(0), end)
	}
}

// faultLog collects FaultRecords across the injector goroutines. The
// simulator executes events single-threaded, so plain appends are safe.
type faultLog struct {
	recs []FaultRecord
}

func (fl *faultLog) add(r FaultRecord) {
	if fl != nil {
		fl.recs = append(fl.recs, r)
	}
}

// addRemediations logs every route re-pin and ring reversal eng made as a
// "remediation" window opening at the action (eng may be nil).
func (fl *faultLog) addRemediations(eng *remediation.Engine) {
	if eng == nil {
		return
	}
	for _, a := range eng.Finish().Actions {
		if a.Action == "repin" || a.Action == "reverse" {
			fl.add(FaultRecord{Kind: "remediation", Start: a.At, End: FaultOpenEnd, Link: -1, Rank: -1})
		}
	}
}
