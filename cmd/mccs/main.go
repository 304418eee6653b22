// mccs is the one command-line entry point of the reproduction: every
// paper figure, every operational experiment and every inspection tool is
// a subcommand (the commands table below; `mccs help` prints it).
//
// The experiment subcommands (bench, multi, qos, reconfig, churn) share
// one set of observer flags — -trace, -telemetry, -telemetry-every,
// -doctor — registered by observerFlags and carried as one
// harness.Observers value; see that type for what each plane records.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"mccs/internal/harness"
	"mccs/internal/telemetry"
	"mccs/internal/trace"
)

// command is one subcommand: run parses args with its own flag set,
// writes its report to stdout and returns instead of exiting, so tests
// drive every subcommand in-process.
type command struct {
	name    string
	summary string
	run     func(args []string, stdout io.Writer) error
}

var commands = []command{
	{"bench", "Fig. 6: single-application collective bandwidth across sizes and systems", runBench},
	{"breakdown", "Fig. 2: training-time breakdown of four production model profiles", runBreakdown},
	{"crossrack", "Fig. 3: cross-rack flow count of a random ring vs the optimal ring", runCrossrack},
	{"multi", "Fig. 8: per-tenant bus bandwidth in the four multi-application placements", runMulti},
	{"qos", "Fig. 9 (and Fig. 10 with -dynamic): training workloads under ECMP/FFA/PFA/PFA+TS", runQoS},
	{"reconfig", "Fig. 7: background flow degrades a ring, a provider-issued reversal restores it", runReconfig},
	{"simcluster", "Fig. 11: 768-GPU simulation of random rings vs OR vs OR+FFA", runSimcluster},
	{"churn", "tenant churn through the lifecycle orchestrator: JCT, queueing delay, utilization", runChurn},
	{"selfheal", "chaos self-heal scenario with the diagnosis and remediation loop attached", runSelfheal},
	{"top", "operator view of a telemetry series: tenants, scheduler, tuner, health, links, SLOs", runTop},
	{"trace", "summarize or dump a flight-recorder trace", runTrace},
	{"doctor", "replay a trace (and telemetry) through the health diagnosis engine", runDoctor},
}

func main() {
	os.Exit(dispatch(os.Args[1:], os.Stdout, os.Stderr))
}

// dispatch runs one subcommand and returns the process exit code: 0 on
// success (and for help), 2 for a usage error, 1 for anything else.
func dispatch(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	switch args[0] {
	case "help", "-h", "-help", "--help":
		usage(stdout)
		return 0
	}
	for _, c := range commands {
		if c.name != args[0] {
			continue
		}
		err := c.run(args[1:], stdout)
		var ue usageError
		switch {
		case err == nil || errors.Is(err, flag.ErrHelp):
			return 0
		case errors.As(err, &ue):
			fmt.Fprintf(stderr, "mccs %s: %v (see: mccs %s -h)\n", c.name, err, c.name)
			return 2
		default:
			fmt.Fprintf(stderr, "mccs %s: %v\n", c.name, err)
			return 1
		}
	}
	fmt.Fprintf(stderr, "mccs: unknown subcommand %q\n", args[0])
	usage(stderr)
	return 2
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: mccs <subcommand> [flags] [args]   (mccs <subcommand> -h for its flags)")
	fmt.Fprintln(w)
	for _, c := range commands {
		fmt.Fprintf(w, "  %-11s %s\n", c.name, c.summary)
	}
}

// usageError marks a bad invocation (unknown flag or flag value, wrong
// argument count): dispatch exits 2 for it and 1 for a failed run.
type usageError struct{ error }

func usagef(format string, a ...any) error {
	return usageError{fmt.Errorf(format, a...)}
}

// newFlagSet returns the flag set of a subcommand. synopsis is the part
// of the usage line after "mccs <name>"; about is printed under it.
func newFlagSet(name, synopsis, about string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(io.Discard) // parseFlags reports; the flag package stays quiet
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: mccs %s %s\n\n%s\n\nflags:\n", name, synopsis, about)
		fs.PrintDefaults()
	}
	return fs
}

// parseFlags parses args. -h prints the subcommand's usage to stdout and
// returns flag.ErrHelp; any other flag error comes back as a usageError
// for dispatch to report.
func parseFlags(fs *flag.FlagSet, args []string, stdout io.Writer) error {
	err := fs.Parse(args)
	if errors.Is(err, flag.ErrHelp) {
		fs.SetOutput(stdout)
		fs.Usage()
		return err
	}
	if err != nil {
		return usageError{err}
	}
	return nil
}

// atLeastOne refuses any of the named int flags of fs set below 1: an
// iteration or trial count.
func atLeastOne(fs *flag.FlagSet, names ...string) error {
	for _, name := range names {
		if v := fs.Lookup(name).Value.(flag.Getter).Get().(int); v < 1 {
			return usagef("-%s %d: must be at least 1", name, v)
		}
	}
	return nil
}

// observerFlags registers the flags every experiment subcommand shares
// and returns the Observers value they fill. Subcommands that run more
// than one experiment hand it to one of them through observeLast.
func observerFlags(fs *flag.FlagSet) *harness.Observers {
	o := &harness.Observers{}
	fs.StringVar(&o.TracePath, "trace", "", "record the run at full detail and write Chrome trace-event JSON here (Perfetto, or: mccs trace summarize)")
	fs.StringVar(&o.TelemetryPath, "telemetry", "", "sample the metrics registry and write the series here (JSONL for mccs top; .prom for Prometheus text)")
	fs.DurationVar(&o.TelemetryEvery, "telemetry-every", 0, "telemetry sampling interval (default 100ms)")
	fs.StringVar(&o.DoctorPath, "doctor", "", "attach the online diagnosis engine and write its health report here (.jsonl for incident JSONL)")
	return o
}

// observeLast returns what each of runs experiments in a row is observed
// with: obs for the last, nothing for the others. One recording is the
// artifact (a later run would overwrite it), and the last run is the one
// that decides: PFA+TS in Fig. 9, MCCS in Fig. 8's setup 4, MCCS(auto) or
// MCCS in Fig. 6's last cell.
func observeLast(obs harness.Observers, runs int) func() harness.Observers {
	return func() harness.Observers {
		if runs--; runs == 0 {
			return obs
		}
		return harness.Observers{}
	}
}

// reportArtifacts tells the user which observer files a run wrote.
func reportArtifacts(w io.Writer, o harness.Observers) {
	if o.DoctorPath != "" {
		fmt.Fprintf(w, "doctor report written to %s\n", o.DoctorPath)
	}
	if o.TracePath != "" {
		fmt.Fprintf(w, "trace written to %s (view in Perfetto, or: mccs trace summarize %s)\n", o.TracePath, o.TracePath)
	}
	if o.TelemetryPath != "" {
		fmt.Fprintf(w, "telemetry written to %s (render with: mccs top %s)\n", o.TelemetryPath, o.TelemetryPath)
	}
}

// loadTrace reads a Chrome trace-event file written by a -trace flag (or
// a chaos failure dump); loadSeries reads a -telemetry JSONL file.
func loadTrace(path string) (trace.Recording, error) {
	f, err := os.Open(path)
	if err != nil {
		return trace.Recording{}, err
	}
	defer f.Close()
	rec, err := trace.ReadChrome(f)
	if err != nil {
		return rec, fmt.Errorf("parsing %s: %w", path, err)
	}
	return rec, nil
}

func loadSeries(path string) (*telemetry.Series, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	se, err := telemetry.ReadJSONL(f)
	if err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return se, nil
}

// writeTo creates path and fills it with write; an empty path (an output
// flag left unset) writes nothing.
func writeTo(path string, write func(io.Writer) error) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
