package main

import "testing"

func TestParseResultLine(t *testing.T) {
	recs := parse("BenchmarkFig7Reconfig-8   \t 1\t  52731042 ns/op\t         7.105 pre-GB/s\t         2.174 during-GB/s")
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3: %v", len(recs), recs)
	}
	for _, r := range recs {
		if r.Bench != "BenchmarkFig7Reconfig" {
			t.Errorf("bench = %q, want BenchmarkFig7Reconfig", r.Bench)
		}
	}
	if recs[0].Metric != "ns/op" || recs[0].Value != 52731042 {
		t.Errorf("first record = %+v, want ns/op 52731042", recs[0])
	}
	if recs[0].Unit != "ns" {
		t.Errorf("ns/op unit = %q, want ns", recs[0].Unit)
	}
	if recs[2].Metric != "during-GB/s" || recs[2].Value != 2.174 {
		t.Errorf("third record = %+v, want during-GB/s 2.174", recs[2])
	}
	if recs[2].Unit != "during-GB/s" {
		t.Errorf("custom metric unit = %q, want pass-through", recs[2].Unit)
	}
}

// The units convention: standard per-op metrics drop the /op
// denominator, custom ReportMetric labels pass through.
func TestUnitOf(t *testing.T) {
	cases := map[string]string{
		"ns/op":       "ns",
		"B/op":        "B",
		"allocs/op":   "allocs",
		"MB/s":        "MB/s",
		"GB/s":        "GB/s",
		"mean-comm-%": "mean-comm-%",
	}
	for metric, want := range cases {
		if got := unitOf(metric); got != want {
			t.Errorf("unitOf(%q) = %q, want %q", metric, got, want)
		}
	}
}

func TestParseSkipsNonResultLines(t *testing.T) {
	for _, line := range []string{
		"goos: linux",
		"pkg: mccs",
		"PASS",
		"ok  \tmccs\t1.234s",
		"BenchmarkFig2Breakdown-8", // header without results is not a sample
		"",
	} {
		if recs := parse(line); recs != nil {
			t.Errorf("parse(%q) = %v, want nil", line, recs)
		}
	}
}

func TestParseNoGomaxprocsSuffix(t *testing.T) {
	recs := parse("BenchmarkLower 100 1042 ns/op")
	if len(recs) != 1 || recs[0].Bench != "BenchmarkLower" || recs[0].Value != 1042 {
		t.Fatalf("got %v, want one BenchmarkLower ns/op=1042 record", recs)
	}
}

// A sub-benchmark line as `make bench-sim-json` feeds it (the netsim
// allocation memo): the slash stays in the name, the -GOMAXPROCS suffix
// goes, and a custom metric sits between the standard ones.
func TestParseSubBenchmarkLine(t *testing.T) {
	recs := parse("BenchmarkAllocate/hit-2   \t  200000\t        84.08 ns/op\t         8.000 flows\t       0 B/op\t       0 allocs/op")
	want := []Record{
		{Bench: "BenchmarkAllocate/hit", Metric: "ns/op", Value: 84.08, Unit: "ns"},
		{Bench: "BenchmarkAllocate/hit", Metric: "flows", Value: 8, Unit: "flows"},
		{Bench: "BenchmarkAllocate/hit", Metric: "B/op", Value: 0, Unit: "B"},
		{Bench: "BenchmarkAllocate/hit", Metric: "allocs/op", Value: 0, Unit: "allocs"},
	}
	if len(recs) != len(want) {
		t.Fatalf("got %d records, want %d: %v", len(recs), len(want), recs)
	}
	for i := range want {
		if recs[i] != want[i] {
			t.Errorf("record %d = %+v, want %+v", i, recs[i], want[i])
		}
	}
}
