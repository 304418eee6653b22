package remediation

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"mccs/internal/sim"
)

// actionNames enumerates the recovery actions for the per-action metric
// family; quarantine/readmit transitions are counted by their own
// totals, not here.
var actionNames = [...]string{"repin", "reverse", "retune", "degrade", "ffa"}

// ActionRecord is one self-healing event: a quarantine or re-admission
// transition, or a recovery action. Records are appended in action
// order, which is deterministic for a fixed seed.
type ActionRecord struct {
	ID       int
	At       sim.Time
	Action   string // quarantine|readmit|repin|reverse|retune|degrade|ffa
	Cause    string // congested-link|slow-gpu|tenant-contention
	Link     int32  // affected link, -1 n/a
	LinkName string
	Comm     int32 // remediated communicator, 0 n/a
	Rank     int32 // blamed rank, -1 n/a
	Tenant   string
	// Escalation is the ladder rung (0 re-pin, 1 re-tune, 2 degrade)
	// for recovery actions; 0 for transitions.
	Escalation int
	// Detected is when the episode's first evidence appeared; Recovered
	// is set on readmit records (time-to-recover = Recovered-Detected).
	Detected  sim.Time
	Recovered sim.Time
	Detail    string
}

// Report is the engine's final output.
type Report struct {
	Actions      []ActionRecord
	Quarantines  int
	Readmissions int
	Suppressed   int
	End          sim.Time
}

// TimesToRecover returns each completed episode's detect→readmit
// duration in record order.
func (r *Report) TimesToRecover() []sim.Duration {
	var out []sim.Duration
	for _, a := range r.Actions {
		if a.Action == "readmit" {
			out = append(out, a.Recovered.Sub(a.Detected))
		}
	}
	return out
}

// String is a one-line summary.
func (r *Report) String() string {
	return fmt.Sprintf("remediation: %d events (%d quarantines, %d readmissions, %d suppressed)",
		len(r.Actions), r.Quarantines, r.Readmissions, r.Suppressed)
}

// jsonlHeader is the first line of the remediation JSONL stream.
type jsonlHeader struct {
	Kind         string `json:"kind"`
	Events       int    `json:"events"`
	Quarantines  int    `json:"quarantines"`
	Readmissions int    `json:"readmissions"`
	Suppressed   int    `json:"suppressed"`
	EndNS        int64  `json:"end_ns"`
}

// jsonlAction pins the field order of one event line. Times are
// sim-time nanoseconds; identity fields keep their sentinels (-1 link/
// rank, 0 comm) so a consumer can tell "rank 0" from "no rank".
type jsonlAction struct {
	Kind        string `json:"kind"`
	ID          int    `json:"id"`
	AtNS        int64  `json:"at_ns"`
	Action      string `json:"action"`
	Cause       string `json:"cause"`
	Link        int32  `json:"link"`
	LinkName    string `json:"link_name,omitempty"`
	Comm        int32  `json:"comm"`
	Rank        int32  `json:"rank"`
	Tenant      string `json:"tenant,omitempty"`
	Escalation  int    `json:"escalation"`
	DetectedNS  int64  `json:"detected_ns"`
	RecoveredNS int64  `json:"recovered_ns,omitempty"`
	Detail      string `json:"detail,omitempty"`
}

// WriteJSONL writes the event log as JSON Lines: one header record,
// then one record per event in action order. Byte-deterministic for a
// fixed seed.
func (r *Report) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(jsonlHeader{
		Kind: "remediation", Events: len(r.Actions),
		Quarantines: r.Quarantines, Readmissions: r.Readmissions,
		Suppressed: r.Suppressed, EndNS: int64(r.End),
	}); err != nil {
		return err
	}
	for _, a := range r.Actions {
		ja := jsonlAction{
			Kind: "event", ID: a.ID, AtNS: int64(a.At),
			Action: a.Action, Cause: a.Cause,
			Link: a.Link, LinkName: a.LinkName, Comm: a.Comm, Rank: a.Rank,
			Tenant: a.Tenant, Escalation: a.Escalation,
			DetectedNS: int64(a.Detected), Detail: a.Detail,
		}
		if a.Recovered != 0 {
			ja.RecoveredNS = int64(a.Recovered)
		}
		if err := enc.Encode(ja); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteText writes the operator-facing report. Byte-deterministic for a
// fixed seed.
func (r *Report) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "MCCS REMEDIATION REPORT\n")
	fmt.Fprintf(bw, "  horizon %v | %d events | %d quarantines, %d readmissions, %d suppressed\n",
		r.End.Sub(0), len(r.Actions), r.Quarantines, r.Readmissions, r.Suppressed)
	if ttrs := r.TimesToRecover(); len(ttrs) > 0 {
		sorted := append([]sim.Duration(nil), ttrs...)
		for i := 1; i < len(sorted); i++ {
			for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
				sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
			}
		}
		fmt.Fprintf(bw, "  median time-to-recover %v over %d episodes\n",
			sorted[len(sorted)/2], len(sorted))
	}
	if len(r.Actions) == 0 {
		fmt.Fprintf(bw, "  idle: no remediation events\n")
		return bw.Flush()
	}
	fmt.Fprintf(bw, "\nEVENTS\n")
	for _, a := range r.Actions {
		fmt.Fprintf(bw, "  #%-3d %-10s %-16s at %v", a.ID, a.Action, a.Cause, a.At.Sub(0))
		if a.Link >= 0 {
			if a.LinkName != "" {
				fmt.Fprintf(bw, " link %s", a.LinkName)
			} else {
				fmt.Fprintf(bw, " link %d", a.Link)
			}
		}
		if a.Comm != 0 {
			fmt.Fprintf(bw, " comm %d", a.Comm)
		}
		if a.Rank >= 0 {
			fmt.Fprintf(bw, " rank %d", a.Rank)
		}
		if a.Tenant != "" {
			fmt.Fprintf(bw, " tenant %s", a.Tenant)
		}
		fmt.Fprintf(bw, "\n")
		if a.Detail != "" {
			fmt.Fprintf(bw, "       %s\n", a.Detail)
		}
	}
	return bw.Flush()
}
