package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"mccs/internal/sim"
)

// Export discipline (same as internal/trace): no map iteration reaches
// the output un-sorted, no wall-clock or pointer values are emitted, and
// float formatting goes through one fixed function — so a fixed seed
// yields byte-identical files.

// formatFloat is the one float formatter every exporter uses.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func labelString(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(l.Value)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// WritePrometheus writes the registry's current values in Prometheus
// text exposition format: metrics sorted by name then label string,
// histograms expanded into _bucket/_sum/_count with a trailing +Inf
// bucket.
func WritePrometheus(w io.Writer, r *Registry) error {
	if r == nil {
		return nil
	}
	byName := make(map[string][]*entry)
	var names []string
	for _, e := range r.entries {
		if _, ok := byName[e.name]; !ok {
			names = append(names, e.name)
		}
		byName[e.name] = append(byName[e.name], e)
	}
	sort.Strings(names)
	bw := bufio.NewWriter(w)
	for _, name := range names {
		es := byName[name]
		fmt.Fprintf(bw, "# HELP %s unit: %s\n", name, es[0].unit)
		fmt.Fprintf(bw, "# TYPE %s %s\n", name, es[0].kind)
		sort.Slice(es, func(i, j int) bool {
			return labelString(es[i].labels) < labelString(es[j].labels)
		})
		for _, e := range es {
			ls := labelString(e.labels)
			switch e.kind {
			case KindCounter:
				fmt.Fprintf(bw, "%s%s %d\n", name, ls, e.c.v)
			case KindGauge:
				fmt.Fprintf(bw, "%s%s %s\n", name, ls, formatFloat(e.gauge()))
			case KindHistogram:
				cum := uint64(0)
				for i, b := range e.h.bounds {
					cum += e.h.counts[i]
					fmt.Fprintf(bw, "%s_bucket%s %d\n", name, withLE(ls, formatFloat(b)), cum)
				}
				fmt.Fprintf(bw, "%s_bucket%s %d\n", name, withLE(ls, "+Inf"), e.h.n)
				fmt.Fprintf(bw, "%s_sum%s %s\n", name, ls, formatFloat(e.h.sum))
				fmt.Fprintf(bw, "%s_count%s %d\n", name, ls, e.h.n)
			}
		}
	}
	return bw.Flush()
}

// withLE splices an le="bound" label into a rendered label string.
func withLE(ls, bound string) string {
	if ls == "" {
		return `{le="` + bound + `"}`
	}
	return ls[:len(ls)-1] + `,le="` + bound + `"}`
}

// JSONL layout: one JSON object per line, discriminated by "kind".
//
//	{"kind":"schema","interval_ns":...,"cols":[Column...]}
//	{"kind":"links","links":[{"id":..,"name":..,"cap_bps":..}...]}
//	{"kind":"sample","t_ns":...,"v":[...]}          // in time order
//	{"kind":"violation","t_ns":...,"tenant":...}    // merged by time
//	{"kind":"summary","samples":N,"dropped":..,"violations":..}
//
// Samples may carry fewer values than the schema has columns (metrics
// registered after the sample was taken); readers treat missing trailing
// columns as zero.

type jsonlSchema struct {
	Kind       string   `json:"kind"`
	IntervalNS int64    `json:"interval_ns"`
	Cols       []Column `json:"cols"`
}

type jsonlLink struct {
	ID     int32   `json:"id"`
	Name   string  `json:"name"`
	CapBps float64 `json:"cap_bps"`
}

type jsonlLinks struct {
	Kind  string      `json:"kind"`
	Links []jsonlLink `json:"links"`
}

type jsonlSample struct {
	Kind string    `json:"kind"`
	TNS  int64     `json:"t_ns"`
	V    []float64 `json:"v"`
}

type jsonlViolation struct {
	Kind        string  `json:"kind"`
	TNS         int64   `json:"t_ns"`
	WindowNS    int64   `json:"window_ns"`
	Tenant      string  `json:"tenant"`
	Link        int32   `json:"link"`
	LinkName    string  `json:"link_name"`
	AchievedBps float64 `json:"achieved_bps"`
	EntitledBps float64 `json:"entitled_bps"`
	DeficitBps  float64 `json:"deficit_bps"`
}

type jsonlSummary struct {
	Kind              string `json:"kind"`
	Samples           int    `json:"samples"`
	DroppedSamples    int    `json:"dropped_samples"`
	Violations        int    `json:"violations"`
	DroppedViolations int    `json:"dropped_violations"`
}

// WriteJSONL writes the sampler's series (schema, links, samples with
// violations merged in time order, summary) as JSON Lines.
func WriteJSONL(w io.Writer, sm *Sampler) error {
	if sm == nil {
		return nil
	}
	return SeriesOf(sm).write(w, sm.dropped, sm.reg.SLO.Dropped())
}

// write is WriteJSONL over a series; the two drop counts only appear in the
// summary line, which ReadJSONL does not keep.
func (se *Series) write(w io.Writer, droppedSamples, droppedViolations int) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(jsonlSchema{Kind: "schema", IntervalNS: int64(se.Interval), Cols: se.Cols}); err != nil {
		return err
	}
	links := make([]jsonlLink, 0, len(se.Links))
	for _, l := range se.Links {
		links = append(links, jsonlLink{ID: l.ID, Name: l.Name, CapBps: l.CapBps})
	}
	if err := enc.Encode(jsonlLinks{Kind: "links", Links: links}); err != nil {
		return err
	}
	viols := se.Violations
	vi := 0
	for _, s := range se.Samples {
		if err := enc.Encode(jsonlSample{Kind: "sample", TNS: int64(s.T), V: s.V}); err != nil {
			return err
		}
		for vi < len(viols) && viols[vi].T <= s.T {
			if err := encodeViolation(enc, viols[vi]); err != nil {
				return err
			}
			vi++
		}
	}
	for ; vi < len(viols); vi++ {
		if err := encodeViolation(enc, viols[vi]); err != nil {
			return err
		}
	}
	if err := enc.Encode(jsonlSummary{
		Kind: "summary", Samples: len(se.Samples), DroppedSamples: droppedSamples,
		Violations: len(viols), DroppedViolations: droppedViolations,
	}); err != nil {
		return err
	}
	return bw.Flush()
}

func encodeViolation(enc *json.Encoder, v Violation) error {
	return enc.Encode(jsonlViolation{
		Kind: "violation", TNS: int64(v.T), WindowNS: int64(v.Window),
		Tenant: v.Tenant, Link: v.Link, LinkName: v.LinkName,
		AchievedBps: v.AchievedBps, EntitledBps: v.EntitledBps, DeficitBps: v.DeficitBps,
	})
}

// Series is a parsed JSONL export — what mccs top renders.
type Series struct {
	Interval   sim.Duration
	Cols       []Column
	Links      []LinkInfo
	Samples    []Sample
	Violations []Violation
}

// ReadJSONL parses a file written by WriteJSONL.
func ReadJSONL(r io.Reader) (*Series, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	out := &Series{}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var probe struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal([]byte(line), &probe); err != nil {
			return nil, fmt.Errorf("telemetry jsonl line %d: %w", lineNo, err)
		}
		switch probe.Kind {
		case "schema":
			var s jsonlSchema
			if err := json.Unmarshal([]byte(line), &s); err != nil {
				return nil, fmt.Errorf("telemetry jsonl line %d: %w", lineNo, err)
			}
			out.Interval = sim.Duration(s.IntervalNS)
			out.Cols = s.Cols
		case "links":
			var l jsonlLinks
			if err := json.Unmarshal([]byte(line), &l); err != nil {
				return nil, fmt.Errorf("telemetry jsonl line %d: %w", lineNo, err)
			}
			for _, lk := range l.Links {
				out.Links = append(out.Links, LinkInfo{ID: lk.ID, Name: lk.Name, CapBps: lk.CapBps})
			}
		case "sample":
			var s jsonlSample
			if err := json.Unmarshal([]byte(line), &s); err != nil {
				return nil, fmt.Errorf("telemetry jsonl line %d: %w", lineNo, err)
			}
			out.Samples = append(out.Samples, Sample{T: sim.Time(s.TNS), V: s.V})
		case "violation":
			var v jsonlViolation
			if err := json.Unmarshal([]byte(line), &v); err != nil {
				return nil, fmt.Errorf("telemetry jsonl line %d: %w", lineNo, err)
			}
			out.Violations = append(out.Violations, Violation{
				T: sim.Time(v.TNS), Window: sim.Duration(v.WindowNS),
				Tenant: v.Tenant, Link: v.Link, LinkName: v.LinkName,
				AchievedBps: v.AchievedBps, EntitledBps: v.EntitledBps, DeficitBps: v.DeficitBps,
			})
		case "summary":
			// informational; nothing to keep
		default:
			return nil, fmt.Errorf("telemetry jsonl line %d: unknown kind %q", lineNo, probe.Kind)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if out.Cols == nil {
		return nil, fmt.Errorf("telemetry jsonl: no schema line")
	}
	return out, nil
}

// SeriesOf builds an in-memory Series directly from a live sampler,
// bypassing the file round-trip.
func SeriesOf(sm *Sampler) *Series {
	if sm == nil {
		return nil
	}
	return &Series{
		Interval:   sm.interval,
		Cols:       sm.reg.Schema(),
		Links:      sm.reg.links,
		Samples:    sm.samples,
		Violations: sm.reg.SLO.Violations(),
	}
}

// Value returns sample s's value in column c (0 when the sample predates
// the column).
func (se *Series) Value(s Sample, c int) float64 {
	if c >= len(s.V) {
		return 0
	}
	return s.V[c]
}

// FindCols returns the indexes of columns matching name and all given
// labels (a label with empty value matches any value of that key).
func (se *Series) FindCols(name string, labels ...Label) []int {
	var out []int
	for i, c := range se.Cols {
		if c.Name != name {
			continue
		}
		ok := true
		for _, want := range labels {
			found := false
			for _, have := range c.Labels {
				if have.Key == want.Key && (want.Value == "" || have.Value == want.Value) {
					found = true
					break
				}
			}
			if !found {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, i)
		}
	}
	return out
}

// LabelValue returns the value of key on column c ("" when absent).
func (se *Series) LabelValue(c int, key string) string {
	for _, l := range se.Cols[c].Labels {
		if l.Key == key {
			return l.Value
		}
	}
	return ""
}
