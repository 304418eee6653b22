package trace

import (
	"fmt"
	"io"
	"sort"

	"mccs/internal/sim"
)

// Bottleneck attribution.
//
// For each collective (comm, seq) the recording holds one KindOp span
// per rank and — at LevelFull — the tagged fabric flows that carried
// its steps. Attribution works backwards from completion:
//
//  1. The op's interval is [min rank start, max rank end].
//  2. The *gating flow* is the tagged flow with the latest end time:
//     ring steps are lock-stepped through data dependencies, so the
//     last transfer to finish is what the slowest rank was waiting on.
//  3. The gating flow's rate-sample history names, for each interval of
//     its lifetime, the link that froze it in the max-min water-fill.
//     The *gating link* is the bottleneck carrying the largest share of
//     the flow's lifetime (time-weighted).
//  4. The same samples give the flow's own average rate and the
//     external (unmanaged, e.g. competing-tenant) rate on that link, so
//     the report can say how much of the link the collective lost to
//     background traffic.

// OpReport is the attribution result for one collective.
type OpReport struct {
	Comm  int32
	Seq   uint64
	Op    int32
	Start sim.Time
	End   sim.Time

	// Gating transfer and where it ran.
	GatingFlow           int64
	GatingFrom, GatingTo int32
	IntraHost            bool

	// Gating link and its occupancy, time-weighted over the gating
	// flow's lifetime while that link was the bottleneck. GatingLink is
	// -1 when the flow was never link-constrained (or no flow data was
	// recorded).
	GatingLink int32
	LinkName   string
	CapBps     float64
	OwnBps     float64 // the gating flow's own average rate
	ExtBps     float64 // external/unmanaged traffic on the link
	OtherBps   float64 // other managed traffic on the link
}

// Dur returns the collective's end-to-end duration across ranks.
func (r *OpReport) Dur() sim.Duration { return r.End.Sub(r.Start) }

type opKey struct {
	comm int32
	seq  uint64
}

// Attribute computes one OpReport per collective in the recording,
// ordered by (start time, comm, seq).
func Attribute(rec Recording) []OpReport {
	ops := make(map[opKey]*OpReport)
	var order []opKey
	for i := range rec.Spans {
		sp := &rec.Spans[i]
		if sp.Kind != KindOp {
			continue
		}
		k := opKey{sp.Comm, sp.Seq}
		r := ops[k]
		if r == nil {
			r = &OpReport{
				Comm: sp.Comm, Seq: sp.Seq, Op: sp.Op,
				Start: sp.Start, End: sp.End,
				GatingLink: -1, GatingFrom: -1, GatingTo: -1, GatingFlow: -1,
			}
			ops[k] = r
			order = append(order, k)
		}
		if sp.Start < r.Start {
			r.Start = sp.Start
		}
		if sp.End > r.End {
			r.End = sp.End
		}
	}

	// Gating flow per op: latest end, then longest, then smallest ID.
	gating := make(map[opKey]*Span)
	for i := range rec.Spans {
		sp := &rec.Spans[i]
		if (sp.Kind != KindFlow && sp.Kind != KindXfer) || sp.Comm == 0 {
			continue
		}
		k := opKey{sp.Comm, sp.Seq}
		if _, ok := ops[k]; !ok {
			continue
		}
		cur := gating[k]
		if cur == nil || Gates(sp, cur) {
			gating[k] = sp
		}
	}

	var b Bottlenecks
	for k, fl := range gating {
		r := ops[k]
		r.GatingFlow = fl.Flow
		r.GatingFrom, r.GatingTo = fl.Rank, fl.Peer
		r.IntraHost = fl.Kind == KindXfer
		b.Fold(fl)
		if j := b.Best; j >= 0 {
			link := b.Link[j]
			r.GatingLink = link
			r.OwnBps, r.ExtBps = b.Own[j]/b.W[j], b.Ext[j]/b.W[j]
			r.OtherBps = max(b.Tot[j]/b.W[j]-r.OwnBps-r.ExtBps, 0)
			if int(link) < len(rec.Meta.Links) {
				r.LinkName = rec.Meta.Links[link].Name
				r.CapBps = rec.Meta.Links[link].CapBps
			}
		}
	}

	out := make([]OpReport, 0, len(order))
	for _, k := range order {
		out = append(out, *ops[k])
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		if out[i].Comm != out[j].Comm {
			return out[i].Comm < out[j].Comm
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// Gates reports whether flow span a, rather than b, gates the collective
// both carried: the later end, then the longer flow, then the smaller
// flow ID. The diagnosis engine applies the same rule to its op's
// flows.
func Gates(a, b *Span) bool {
	if a.End != b.End {
		return a.End > b.End
	}
	da, db := a.Dur(), b.Dur()
	if da != db {
		return da > db
	}
	return a.Flow < b.Flow
}

// Heavier reports whether link a, the bottleneck for weight wa of a
// flow's lifetime, dominates link b at weight wb: the larger weight, then
// the smaller link ID. The diagnosis engine breaks ties the same way.
func Heavier(a int32, wa float64, b int32, wb float64) bool {
	return wa > wb || (wa == wb && a < b)
}

// maxBottlenecks bounds the distinct links a Bottlenecks fold tracks; a
// route here crosses at most six.
const maxBottlenecks = 16

// Bottlenecks is a flow's rate history folded per bottleneck link. For
// each of the N links that froze the flow, W is how long it did (in
// nanoseconds, zero-length samples skipped), Own, Ext and Tot integrate
// the flow's own rate and the link's external and total rates over that
// time, and Cap is the lowest nonzero capacity the link reported. Best
// indexes the link that bottlenecked the flow longest (Heavier), -1 when
// none did. Both trace attribution and the diagnosis engine take a
// flow's gating link from it.
type Bottlenecks struct {
	N                     int
	Best                  int
	Link                  [maxBottlenecks]int32
	W, Own, Ext, Tot, Cap [maxBottlenecks]float64
}

// Fold replaces b with fl's rate samples time-weighted per bottleneck
// link. It allocates nothing, so a caller can reuse one b for every flow;
// links past the maxBottlenecks-th are dropped.
func (b *Bottlenecks) Fold(fl *Span) {
	b.N, b.Best = 0, -1
	for i := range fl.Rates {
		s := &fl.Rates[i]
		end := fl.End
		if i+1 < len(fl.Rates) {
			end = fl.Rates[i+1].T
		}
		if s.Bottleneck < 0 || end <= s.T {
			continue
		}
		j := 0
		for j < b.N && b.Link[j] != s.Bottleneck {
			j++
		}
		if j == b.N {
			if j == maxBottlenecks {
				continue
			}
			b.Link[j], b.W[j], b.Own[j], b.Ext[j], b.Tot[j], b.Cap[j] = s.Bottleneck, 0, 0, 0, 0, 0
			b.N++
		}
		w := float64(end.Sub(s.T))
		b.W[j] += w
		b.Own[j] += s.Bps * w
		b.Ext[j] += s.ExtBps * w
		b.Tot[j] += s.LinkBps * w
		if s.CapBps > 0 && (b.Cap[j] == 0 || s.CapBps < b.Cap[j]) {
			b.Cap[j] = s.CapBps
		}
		if b.Best < 0 || Heavier(b.Link[j], b.W[j], b.Link[b.Best], b.W[b.Best]) {
			b.Best = j
		}
	}
}

// LinkReport aggregates attribution across ops gated by one link.
type LinkReport struct {
	Link      int32
	Name      string
	CapBps    float64
	OpsGated  int
	GatedTime sim.Duration // summed durations of the ops it gated
	AvgExtBps float64      // external traffic on the link, averaged over those ops
}

// ByLink rolls OpReports up into per-gating-link totals, ordered by
// total gated time descending.
func ByLink(reports []OpReport) []LinkReport {
	byLink := make(map[int32]*LinkReport)
	var order []int32
	for i := range reports {
		r := &reports[i]
		if r.GatingLink < 0 {
			continue
		}
		lr := byLink[r.GatingLink]
		if lr == nil {
			lr = &LinkReport{Link: r.GatingLink, Name: r.LinkName, CapBps: r.CapBps}
			byLink[r.GatingLink] = lr
			order = append(order, r.GatingLink)
		}
		lr.OpsGated++
		lr.GatedTime += r.Dur()
		lr.AvgExtBps += r.ExtBps
	}
	out := make([]LinkReport, 0, len(order))
	for _, l := range order {
		lr := byLink[l]
		lr.AvgExtBps /= float64(lr.OpsGated)
		out = append(out, *lr)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].GatedTime != out[j].GatedTime {
			return out[i].GatedTime > out[j].GatedTime
		}
		return out[i].Link < out[j].Link
	})
	return out
}

// maxSummaryOps caps the per-op table in Summarize.
const maxSummaryOps = 200

// Summarize writes a human-readable digest of a recording: span
// inventory, the per-collective attribution table, reconfiguration
// barrier timelines, and the gating-link rollup.
func Summarize(w io.Writer, rec Recording) error {
	counts := map[Kind]int{}
	var t0, t1 sim.Time
	for i := range rec.Spans {
		sp := &rec.Spans[i]
		counts[sp.Kind]++
		if i == 0 || sp.Start < t0 {
			t0 = sp.Start
		}
		if sp.End > t1 {
			t1 = sp.End
		}
	}
	fmt.Fprintf(w, "trace: %d spans over [%v, %v]", len(rec.Spans), t0, t1)
	if rec.Dropped > 0 {
		fmt.Fprintf(w, " (%d dropped by ring wrap)", rec.Dropped)
	}
	fmt.Fprintln(w)
	if rec.Dropped > 0 {
		fmt.Fprintf(w, "WARNING: %d spans were overwritten by ring wrap; attribution below may be incomplete (record with a larger trace capacity)\n", rec.Dropped)
	}
	for k := Kind(0); k < Kind(len(kindNames)); k++ {
		if counts[k] > 0 {
			fmt.Fprintf(w, "  %-8s %d\n", k.String(), counts[k])
		}
	}

	reports := Attribute(rec)
	if len(reports) > 0 {
		fmt.Fprintf(w, "\ncollectives (%d):\n", len(reports))
		fmt.Fprintf(w, "  %-12s %-6s %-14s %-10s %-9s %-22s %-10s %-10s %-10s\n",
			"t", "comm", "op", "dur", "gate", "link", "own", "ext", "other")
		for i := range reports {
			if i == maxSummaryOps {
				fmt.Fprintf(w, "  ... %d more\n", len(reports)-maxSummaryOps)
				break
			}
			r := &reports[i]
			gate := "-"
			switch {
			case r.IntraHost:
				gate = "intra"
			case r.GatingFlow >= 0:
				gate = fmt.Sprintf("r%d>r%d", r.GatingFrom, r.GatingTo)
			}
			link := "-"
			if r.GatingLink >= 0 {
				link = r.LinkName
				if link == "" {
					link = fmt.Sprintf("link%d", r.GatingLink)
				}
			}
			fmt.Fprintf(w, "  %-12v %-6d %-14s %-10v %-9s %-22s %-10s %-10s %-10s\n",
				r.Start, r.Comm, fmt.Sprintf("%s#%d", OpName(r.Op), r.Seq), r.Dur(),
				gate, link, humanBps(r.OwnBps), humanBps(r.ExtBps), humanBps(r.OtherBps))
		}
	}

	if counts[KindBarrier] > 0 {
		fmt.Fprintln(w, "\nreconfiguration barriers (rank 0):")
		for i := range rec.Spans {
			sp := &rec.Spans[i]
			if sp.Kind != KindBarrier || sp.Rank != 0 {
				continue
			}
			fmt.Fprintf(w, "  %-12v comm %-3d gen %-3d %-18s %v\n",
				sp.Start, sp.Comm, sp.Gen, PhaseName(sp.Op), sp.Dur())
		}
	}

	if links := ByLink(reports); len(links) > 0 {
		fmt.Fprintln(w, "\ngating links (by total gated collective time):")
		fmt.Fprintf(w, "  %-22s %-10s %-6s %-12s %-12s\n", "link", "capacity", "ops", "gated", "avg-ext")
		for _, lr := range links {
			name := lr.Name
			if name == "" {
				name = fmt.Sprintf("link%d", lr.Link)
			}
			fmt.Fprintf(w, "  %-22s %-10s %-6d %-12v %-12s\n",
				name, humanBps(lr.CapBps), lr.OpsGated, lr.GatedTime, humanBps(lr.AvgExtBps))
		}
	}
	return nil
}

// humanBps formats a bytes/sec figure as bits/sec with SI prefixes (the
// unit the paper uses for link capacities).
func humanBps(bps float64) string {
	bits := bps * 8
	switch {
	case bits >= 1e9:
		return fmt.Sprintf("%.1fGbps", bits/1e9)
	case bits >= 1e6:
		return fmt.Sprintf("%.1fMbps", bits/1e6)
	case bits >= 1e3:
		return fmt.Sprintf("%.1fKbps", bits/1e3)
	case bits > 0:
		return fmt.Sprintf("%.0fbps", bits)
	default:
		return "0"
	}
}
