package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"mccs/internal/sim"
)

// Chrome trace-event export (the JSON array format understood by
// chrome://tracing and https://ui.perfetto.dev). Layout: one process
// row per host (plus one for the switch fabric), one thread row per
// engine — a proxy runner, a shim frontend, a transport connection, a
// GPU stream. Every "X" event embeds the full machine-readable span
// under args.s, so ReadChrome can reconstruct the exact Recording and
// `mccs trace` can post-process a file without access to the run.
//
// Output is byte-deterministic: events are written in ring order,
// thread IDs are assigned first-seen, and encoding/json sorts map keys.

// opNames mirrors the collective.Op iota order. Kept here (rather than
// importing the collective package) so trace stays dependency-free.
var opNames = [...]string{"AllReduce", "AllGather", "ReduceScatter", "Broadcast", "Reduce"}

// OpName returns the printable name of a collective op code.
func OpName(code int32) string {
	if code >= 0 && int(code) < len(opNames) {
		return opNames[code]
	}
	return fmt.Sprintf("op%d", code)
}

type rateJSON struct {
	T          int64   `json:"t"`
	Bps        float64 `json:"bps"`
	Bottleneck int32   `json:"bl"`
	LinkBps    float64 `json:"lr"`
	ExtBps     float64 `json:"xr"`
	CapBps     float64 `json:"cap"`
}

type spanJSON struct {
	Kind    uint8      `json:"k"`
	Op      int32      `json:"op"`
	Start   int64      `json:"b"`
	End     int64      `json:"e"`
	Busy    int64      `json:"bz,omitempty"`
	Host    int32      `json:"h"`
	GPU     int32      `json:"g"`
	Comm    int32      `json:"c"`
	Rank    int32      `json:"r"`
	Peer    int32      `json:"p"`
	Channel int32      `json:"ch"`
	Gen     int32      `json:"gen"`
	Step    int32      `json:"st"`
	Seq     uint64     `json:"q"`
	Flow    int64      `json:"f"`
	Bytes   int64      `json:"n"`
	Src     int32      `json:"src"`
	Dst     int32      `json:"dst"`
	Label   string     `json:"l,omitempty"`
	Route   []int32    `json:"rt,omitempty"`
	Rates   []rateJSON `json:"rs,omitempty"`
}

func toJSON(sp *Span) spanJSON {
	j := spanJSON{
		Kind: uint8(sp.Kind), Op: sp.Op,
		Start: int64(sp.Start), End: int64(sp.End), Busy: int64(sp.Busy),
		Host: sp.Host, GPU: sp.GPU, Comm: sp.Comm, Rank: sp.Rank, Peer: sp.Peer,
		Channel: sp.Channel, Gen: sp.Gen, Step: sp.Step, Seq: sp.Seq,
		Flow: sp.Flow, Bytes: sp.Bytes, Src: sp.Src, Dst: sp.Dst,
		Label: sp.Label, Route: sp.Route,
	}
	if len(sp.Rates) > 0 {
		j.Rates = make([]rateJSON, len(sp.Rates))
		for i, s := range sp.Rates {
			j.Rates[i] = rateJSON{
				T: int64(s.T), Bps: s.Bps, Bottleneck: s.Bottleneck,
				LinkBps: s.LinkBps, ExtBps: s.ExtBps, CapBps: s.CapBps,
			}
		}
	}
	return j
}

func fromJSON(j *spanJSON) Span {
	sp := Span{
		Kind: Kind(j.Kind), Op: j.Op,
		Start: sim.Time(j.Start), End: sim.Time(j.End), Busy: sim.Duration(j.Busy),
		Host: j.Host, GPU: j.GPU, Comm: j.Comm, Rank: j.Rank, Peer: j.Peer,
		Channel: j.Channel, Gen: j.Gen, Step: j.Step, Seq: j.Seq,
		Flow: j.Flow, Bytes: j.Bytes, Src: j.Src, Dst: j.Dst,
		Label: j.Label, Route: j.Route,
	}
	if len(j.Rates) > 0 {
		sp.Rates = make([]RateSample, len(j.Rates))
		for i, s := range j.Rates {
			sp.Rates[i] = RateSample{
				T: sim.Time(s.T), Bps: s.Bps, Bottleneck: s.Bottleneck,
				LinkBps: s.LinkBps, ExtBps: s.ExtBps, CapBps: s.CapBps,
			}
		}
	}
	return sp
}

type metaArgs struct {
	Meta    Meta   `json:"meta"`
	Dropped uint64 `json:"dropped"`
}

// pidOf resolves which process row a span belongs to: its host row when
// the host is known (directly or via GPU/node metadata), else the
// fabric row for flows, else pid 0 ("sim").
func pidOf(sp *Span, m *Meta, fabricPid int) int {
	h := sp.Host
	if h < 0 {
		switch sp.Kind {
		case KindFlow:
			if int(sp.Src) < len(m.NodeHost) && sp.Src >= 0 {
				h = m.NodeHost[sp.Src]
			}
		case KindKernel:
			if int(sp.GPU) < len(m.GPUHost) && sp.GPU >= 0 {
				h = m.GPUHost[sp.GPU]
			}
		}
	}
	if h >= 0 && int(h) < len(m.Hosts) {
		return int(h) + 1
	}
	if sp.Kind == KindFlow {
		return fabricPid
	}
	return 0
}

// threadKey names the engine row a span is drawn on. Spans sharing a
// key share a thread row; interval nesting within a row is what makes
// the flame view readable, so keys separate anything that can overlap
// (channels, streams, individual connections).
func threadKey(sp *Span, m *Meta) string {
	switch sp.Kind {
	case KindOp, KindBarrier:
		return fmt.Sprintf("proxy c%d r%d", sp.Comm, sp.Rank)
	case KindStep:
		return fmt.Sprintf("proxy c%d r%d ch%d", sp.Comm, sp.Rank, sp.Channel)
	case KindP2P:
		return fmt.Sprintf("proxy c%d r%d p2p", sp.Comm, sp.Rank)
	case KindCmd:
		return fmt.Sprintf("shim %s c%d r%d", sp.Label, sp.Comm, sp.Rank)
	case KindFlow:
		if sp.Comm != 0 {
			return fmt.Sprintf("flow c%d ch%d r%d>r%d", sp.Comm, sp.Channel, sp.Rank, sp.Peer)
		}
		return fmt.Sprintf("flow %s>%s", nodeName(m, sp.Src), nodeName(m, sp.Dst))
	case KindXfer:
		return fmt.Sprintf("intra nic%d>nic%d", sp.Src, sp.Dst)
	case KindKernel:
		return fmt.Sprintf("gpu%d s%d", sp.GPU, sp.Flow)
	case KindTuner:
		return fmt.Sprintf("tuner c%d", sp.Comm)
	case KindSched:
		if sp.Op == SchedReconfig {
			return "sched policy"
		}
		return fmt.Sprintf("sched job%d", sp.Seq)
	case KindRemediation:
		return "remediation"
	default:
		return "misc"
	}
}

func nodeName(m *Meta, n int32) string {
	if n >= 0 && int(n) < len(m.NodeNames) && m.NodeNames[n] != "" {
		return m.NodeNames[n]
	}
	return fmt.Sprintf("n%d", n)
}

func eventName(sp *Span) string {
	switch sp.Kind {
	case KindOp:
		return fmt.Sprintf("%s#%d", OpName(sp.Op), sp.Seq)
	case KindStep:
		return fmt.Sprintf("step%d", sp.Step)
	case KindBarrier:
		return "reconfig:" + PhaseName(sp.Op)
	case KindP2P:
		if sp.Label != "" {
			return sp.Label
		}
		return "p2p"
	case KindCmd:
		return fmt.Sprintf("cmd %s#%d", OpName(sp.Op), sp.Seq)
	case KindFlow:
		if sp.Label == "external" {
			return fmt.Sprintf("bg-flow#%d", sp.Flow)
		}
		return fmt.Sprintf("flow#%d", sp.Flow)
	case KindXfer:
		return "xfer"
	case KindKernel:
		if sp.Label != "" {
			return sp.Label
		}
		return "kernel"
	case KindTuner:
		if sp.Label != "" {
			return "tune:" + sp.Label
		}
		return "tuner"
	case KindSched:
		if sp.Label != "" {
			return "sched:" + SchedName(sp.Op) + ":" + sp.Label
		}
		return "sched:" + SchedName(sp.Op)
	case KindRemediation:
		return "heal:" + RemedName(sp.Op)
	default:
		return sp.Kind.String()
	}
}

// marshalEvent hand-assembles one trace event line so ts/dur can be
// printed as microsecond floats with stable formatting.
func marshalEvent(name, cat, ph string, tsNs, durNs int64, pid, tid int, args any) ([]byte, error) {
	type wire struct {
		Name string  `json:"name"`
		Cat  string  `json:"cat,omitempty"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur,omitempty"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
		Args any     `json:"args,omitempty"`
	}
	return json.Marshal(wire{
		Name: name, Cat: cat, Ph: ph,
		Ts: float64(tsNs) / 1e3, Dur: float64(durNs) / 1e3,
		Pid: pid, Tid: tid, Args: args,
	})
}

// WriteChrome serializes rec as Chrome trace-event JSON. The output is
// byte-identical for identical recordings.
func WriteChrome(w io.Writer, rec Recording) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	m := &rec.Meta
	fabricPid := len(m.Hosts) + 1

	// First pass: assign thread IDs per (pid, engine key), first-seen.
	type ptKey struct {
		pid int
		key string
	}
	tids := make(map[ptKey]int)
	nextTid := make(map[int]int)
	type rowMeta struct {
		pid, tid int
		name     string
	}
	var rows []rowMeta
	pids := make(map[int]string)
	pids[0] = "sim"
	for i, h := range m.Hosts {
		pids[i+1] = h
	}
	pids[fabricPid] = "fabric"
	for i := range rec.Spans {
		sp := &rec.Spans[i]
		pid := pidOf(sp, m, fabricPid)
		k := ptKey{pid, threadKey(sp, m)}
		if _, ok := tids[k]; !ok {
			nextTid[pid]++
			tids[k] = nextTid[pid]
			rows = append(rows, rowMeta{pid: pid, tid: tids[k], name: k.key})
		}
	}

	if _, err := bw.WriteString("[\n"); err != nil {
		return err
	}
	first := true
	emit := func(b []byte, err error) error {
		if err != nil {
			return err
		}
		if !first {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		first = false
		_, err = bw.Write(b)
		return err
	}

	// Metadata rows: process names in pid order, then thread names in
	// assignment order.
	for pid := 0; pid <= fabricPid; pid++ {
		name, ok := pids[pid]
		if !ok {
			continue
		}
		ev, err := marshalEvent("process_name", "", "M", 0, 0, pid, 0,
			map[string]string{"name": name})
		if err := emit(ev, err); err != nil {
			return err
		}
	}
	for _, r := range rows {
		ev, err := marshalEvent("thread_name", "", "M", 0, 0, r.pid, r.tid,
			map[string]string{"name": r.name})
		if err := emit(ev, err); err != nil {
			return err
		}
	}

	// Span events, in ring (emission) order.
	for i := range rec.Spans {
		sp := &rec.Spans[i]
		pid := pidOf(sp, m, fabricPid)
		tid := tids[ptKey{pid, threadKey(sp, m)}]
		j := toJSON(sp)
		ev, err := marshalEvent(eventName(sp), sp.Kind.String(), "X",
			int64(sp.Start), int64(sp.End-sp.Start), pid, tid,
			map[string]spanJSON{"s": j})
		if err := emit(ev, err); err != nil {
			return err
		}
	}

	// Trailing metadata record for ReadChrome.
	ev, err := marshalEvent("mccs_meta", "", "M", 0, 0, 0, 0,
		metaArgs{Meta: rec.Meta, Dropped: rec.Dropped})
	if err := emit(ev, err); err != nil {
		return err
	}
	if _, err := bw.WriteString("\n]\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadChrome parses a file written by WriteChrome back into a
// Recording. Events without an embedded span (metadata rows) are
// skipped; the trailing mccs_meta record restores the topology.
func ReadChrome(r io.Reader) (Recording, error) {
	var raw []json.RawMessage
	dec := json.NewDecoder(r)
	if err := dec.Decode(&raw); err != nil {
		return Recording{}, fmt.Errorf("trace: parsing chrome json: %w", err)
	}
	var rec Recording
	for _, msg := range raw {
		var ev struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Args struct {
				S       *spanJSON `json:"s"`
				Meta    *Meta     `json:"meta"`
				Dropped uint64    `json:"dropped"`
			} `json:"args"`
		}
		if err := json.Unmarshal(msg, &ev); err != nil {
			return Recording{}, fmt.Errorf("trace: parsing event: %w", err)
		}
		switch {
		case ev.Ph == "X" && ev.Args.S != nil:
			rec.Spans = append(rec.Spans, fromJSON(ev.Args.S))
		case ev.Name == "mccs_meta":
			if ev.Args.Meta != nil {
				rec.Meta = *ev.Args.Meta
			}
			rec.Dropped = ev.Args.Dropped
		}
	}
	return rec, nil
}
