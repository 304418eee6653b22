package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// Record is one benchmark metric sample.
type Record struct {
	Bench  string  `json:"bench"`
	Metric string  `json:"metric"`
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
}

// unitOf normalizes a metric label to the unit of its value (see the
// package comment's units convention).
func unitOf(metric string) string {
	switch metric {
	case "ns/op":
		return "ns"
	case "B/op":
		return "B"
	case "allocs/op":
		return "allocs"
	case "MB/s":
		return "MB/s" // Go's SetBytes throughput: already a plain unit
	}
	return metric
}

// benchLine matches one result line: the benchmark name (with its
// optional -GOMAXPROCS suffix), the iteration count, and the tail of
// whitespace-separated value/unit pairs.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.*)$`)

func parse(line string) []Record {
	m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
	if m == nil {
		return nil
	}
	name, tail := m[1], strings.Fields(m[3])
	var recs []Record
	// The tail alternates value unit value unit ...
	for i := 0; i+1 < len(tail); i += 2 {
		v, err := strconv.ParseFloat(tail[i], 64)
		if err != nil {
			return nil // not a results line after all (e.g. a log line)
		}
		recs = append(recs, Record{Bench: name, Metric: tail[i+1], Value: v, Unit: unitOf(tail[i+1])})
	}
	return recs
}

// runBenchJSON converts `go test -bench` output on stdin into a JSON
// array of {bench, metric, value, unit} records on stdout, one record
// per reported metric (ns/op, B/op, allocs/op, and every custom
// b.ReportMetric unit such as mean-comm-% or GB/s). CI runs the root
// benchmark suite through it to publish BENCH.json as a build artifact,
// so regressions are diffable across runs without scraping logs.
//
// # Units convention
//
// "metric" is the label exactly as Go printed it; "unit" is the unit of
// "value", normalized so downstream tooling never parses labels:
//
//   - Go's standard per-op metrics drop the "/op" denominator: ns/op
//     reports unit "ns", B/op reports "B", allocs/op reports "allocs".
//     The value is still per operation — the denominator is implied by
//     the bench protocol, not repeated in the unit.
//   - Custom b.ReportMetric labels are already units (GB/s, pre-GB/s,
//     mean-comm-%); they pass through unchanged.
//
// This mirrors the telemetry plane's convention (see internal/telemetry)
// that every exported number declares the unit it is measured in.
//
// Usage:
//
//	go test -run '^$' -bench . -benchtime=1x . | mccs benchjson > BENCH.json
func runBenchJSON(args []string, stdout io.Writer) error {
	fs := newFlagSet("benchjson", "< bench.txt > BENCH.json", "Converts `go test -bench` output on stdin into a JSON array of {bench, metric, value, unit} records.")
	if err := parseFlags(fs, args, stdout); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return usagef("unexpected arguments %q: input comes from stdin", fs.Args())
	}
	recs := []Record{}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		recs = append(recs, parse(sc.Text())...)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(recs) == 0 {
		return fmt.Errorf("no benchmark lines on stdin")
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(recs)
}
