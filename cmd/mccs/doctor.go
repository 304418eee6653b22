package main

import (
	"io"

	"mccs/internal/diagnosis"
	"mccs/internal/telemetry"
)

// runDoctor replays a flight-recorder dump through the online health
// diagnosis engine and prints the incident timeline: hung collectives,
// straggler GPUs, degraded links, reconfiguration stalls, SLO breach
// episodes and admission queueing, each attributed to a blamed entity
// with a confidence score. When the recording carries remediation spans
// (`mccs selfheal -trace`), incidents additionally report when they were
// remediated and recovered, and the report closes with a SELF-HEALING
// section giving the median time-to-recover.
//
// The same engine attaches live via the experiment subcommands' -doctor
// flag — replay of the same recording produces the identical report byte
// for byte.
func runDoctor(args []string, stdout io.Writer) error {
	fs := newFlagSet("doctor", "[-jsonl incidents.jsonl] trace.json [telemetry.jsonl]", `Replays a flight-recorder dump (Chrome trace-event JSON from a -trace
flag, or a chaos failure dump) through the health diagnosis engine and
prints the incident timeline. Pass the matching -telemetry JSONL as a
second argument to fold SLO violations into the diagnosis. Recordings
from runs with the self-healing loop attached additionally carry
per-incident remediation/recovery timestamps and a median
time-to-recover summary.`)
	jsonlPath := fs.String("jsonl", "", "also write the incident report as JSONL here")
	if err := parseFlags(fs, args, stdout); err != nil {
		return err
	}
	args = fs.Args()
	if len(args) < 1 || len(args) > 2 {
		return usagef("expected trace.json [telemetry.jsonl], got %d args", len(args))
	}
	rec, err := loadTrace(args[0])
	if err != nil {
		return err
	}
	var se *telemetry.Series
	if len(args) == 2 {
		if se, err = loadSeries(args[1]); err != nil {
			return err
		}
	}

	rep := diagnosis.Analyze(rec, se, diagnosis.DefaultConfig())
	if err := writeTo(*jsonlPath, rep.WriteJSONL); err != nil {
		return err
	}
	return rep.WriteText(stdout)
}
