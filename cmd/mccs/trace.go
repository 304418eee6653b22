package main

import (
	"fmt"
	"io"
	"time"

	"mccs/internal/trace"
)

// runTrace inspects flight-recorder dumps written by the -trace flag
// (Chrome trace-event JSON). The same files load directly into Perfetto
// (ui.perfetto.dev) or chrome://tracing for a visual timeline.
func runTrace(args []string, stdout io.Writer) error {
	fs := newFlagSet("trace", "<summarize|dump> <trace.json>", `commands:
  summarize   span inventory, per-collective bottleneck attribution,
              barrier timelines, gating-link rollup
  dump        print every span, one line each

trace.json is the Chrome trace-event file written by the -trace flag of
an experiment subcommand (or a chaos failure dump).`)
	if err := parseFlags(fs, args, stdout); err != nil {
		return err
	}
	if fs.NArg() != 2 || (fs.Arg(0) != "summarize" && fs.Arg(0) != "dump") {
		return usagef("expected <summarize|dump> <trace.json>")
	}
	rec, err := loadTrace(fs.Arg(1))
	if err != nil {
		return err
	}
	if fs.Arg(0) == "summarize" {
		return trace.Summarize(stdout, rec)
	}
	dump(stdout, rec)
	return nil
}

func dump(w io.Writer, rec trace.Recording) {
	for i := range rec.Spans {
		sp := &rec.Spans[i]
		fmt.Fprintf(w, "%14v %10v %-8s", sp.Start, time.Duration(sp.Dur()), sp.Kind)
		if sp.Comm > 0 {
			fmt.Fprintf(w, " comm=%d", sp.Comm)
		}
		if sp.Rank >= 0 {
			fmt.Fprintf(w, " rank=%d", sp.Rank)
		}
		if sp.Peer >= 0 {
			fmt.Fprintf(w, " peer=%d", sp.Peer)
		}
		switch sp.Kind {
		case trace.KindOp, trace.KindStep, trace.KindCmd:
			fmt.Fprintf(w, " %s#%d", trace.OpName(sp.Op), sp.Seq)
			if sp.Kind == trace.KindStep {
				fmt.Fprintf(w, " step=%d ch=%d", sp.Step, sp.Channel)
			}
		case trace.KindBarrier:
			fmt.Fprintf(w, " phase=%s gen=%d", trace.PhaseName(sp.Op), sp.Gen)
		case trace.KindFlow:
			fmt.Fprintf(w, " flow=%d route=%v", sp.Flow, sp.Route)
			if sp.Comm > 0 {
				fmt.Fprintf(w, " %s#%d step=%d", trace.OpName(sp.Op), sp.Seq, sp.Step)
			}
		case trace.KindXfer:
			fmt.Fprintf(w, " nic%d>nic%d", sp.Src, sp.Dst)
		case trace.KindKernel:
			fmt.Fprintf(w, " gpu=%d stream=%d", sp.GPU, sp.Flow)
		case trace.KindTuner:
			fmt.Fprintf(w, " predicted=%v", time.Duration(sp.Flow))
		}
		if sp.Bytes > 0 {
			fmt.Fprintf(w, " bytes=%d", sp.Bytes)
		}
		if sp.Label != "" {
			fmt.Fprintf(w, " %q", sp.Label)
		}
		fmt.Fprintln(w)
	}
	if rec.Dropped > 0 {
		fmt.Fprintf(w, "(%d spans dropped by ring wrap)\n", rec.Dropped)
	}
}
