// Command gfcsim reproduces the evaluation of "Gentle Flow Control:
// Avoiding Deadlock in Lossless Networks" (SIGCOMM 2019). Each experiment
// regenerates the rows or series of one table or figure of the paper.
//
// Usage:
//
//	gfcsim -exp <experiment> [flags]
//	gfcsim -scenario <name | file.json> [flags]
//	gfcsim -list
//
// Experiments: fig5, fig9, fig10, fig12, fig13, fig14, fig15, table1 (with
// Figures 16 and 17), fig18, fig19, fig20, faults. See EXPERIMENTS.md for
// what each reports and how it maps to the paper.
//
// -scenario runs one declarative scenario end-to-end: either a registered
// name (-list enumerates the catalogue with per-scenario host counts; it
// includes every figure's canonical setup plus the Clos-scale clos128-* and
// clos1024-* scenarios) or a path to a user-authored spec file in the JSON
// format documented in EXPERIMENTS.md.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"syscall"

	"github.com/gfcsim/gfc/internal/experiments"
	"github.com/gfcsim/gfc/internal/faults"
	"github.com/gfcsim/gfc/internal/netsim"
	"github.com/gfcsim/gfc/internal/scenario"
	"github.com/gfcsim/gfc/internal/units"
)

var (
	expName    = flag.String("exp", "", "experiment to run: "+strings.Join(experiments.Names(), ", "))
	duration   = flag.Duration("duration", 0, "override simulated duration (e.g. 50ms)")
	networks   = flag.Int("networks", 300, "table1: scenarios to scan per scale")
	repeats    = flag.Int("repeats", 3, "table1: workload repeats per scenario")
	scales     = flag.String("scales", "4,8", "table1: comma-separated fat-tree arities")
	seed       = flag.Int64("seed", 1, "base random seed")
	workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "sweeps and the fault matrix: cells simulated concurrently (0 = GOMAXPROCS)")
	series     = flag.Bool("series", false, "fig5, fig9, fig10, fig18, fig20: print raw time-series data points")
	chart      = flag.Bool("chart", false, "fig5, fig9, fig10, fig20: render time series as ASCII charts")
	metricsOut = flag.String("metrics-out", "",
		"write per-channel metrics reports, one per simulated run, as a JSON array\n(whatever the path's suffix), and fail on invariant violations; read by the\nsingle-run figures and -scenario")
	faultSpec = flag.String("faults", "",
		"fault scenario: a preset name (resume-loss, feedback-loss, feedback-delay,\nflap, degrade) or a path to a JSON spec file; applies to fig9/fig10 and the\nfaults matrix (deterministic per -seed)")
	scenarioName = flag.String("scenario", "",
		"run a declarative scenario: a registered name (see -list) or a path to a\nspec JSON file (format in EXPERIMENTS.md)")
	listScenarios = flag.Bool("list", false, "list the registered scenarios and exit")
	checkpoint    = flag.String("checkpoint", "",
		"sweeps: JSONL checkpoint file; cells that succeed are flushed as they finish\nand a rerun with the same flags resumes, replaying them and recomputing the\nrest, quarantined cells included")
	budgetEvents = flag.Uint64("budget-events", 0,
		"abort any single run after this many simulator events (0 = unlimited)")
	budgetWall = flag.Duration("budget-wall", 0,
		"abort any single run after this much wall-clock time (0 = unlimited)")
	budgetHeap = flag.Uint64("budget-heap", 0,
		"abort any single run once the process heap exceeds this many bytes\n(OOM guard, sampled every 64 governor checks; 0 = unlimited)")
	stallEvents = flag.Uint64("stall-events", 0,
		"declare livelock if this many events pass with no sim-time, delivery or\ndrop progress (0 = watchdog off)")
	analytic = flag.Bool("analytic", false,
		"sweeps: enforce the network-wide analytic checker on every repeat\n(internal/analytic; violated repeats quarantine their cell; changes the\ncheckpoint key)")
	table1Scale = flag.String("table1-scale", "",
		"table1: preset of the count flags, and refused beside them — \"ci\" (k=4,\n200 networks × 1 repeat, checker on: the CI gate) or \"full\" (paper scale:\n10000 networks × 100 repeats, 1 flow/host, checker on; -scales stays free;\nrun with -checkpoint, see EXPERIMENTS.md)")
	backendName = flag.String("backend", "",
		"simulation backend for -scenario and table1: \"packet\" (default; replays\nevery packet) or \"fluid\" (network-of-queues rate integration: a 25 ms k=4\nsweep cell in a quarter to a sixth of the packet time; rejects specs it\ncannot represent faithfully, and sweeps leave out the schemes whose\ndeadlocks it cannot decide — PFC, CBFC — and Figure 17, which needs flow\ncompletion times)")
	cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile = flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
)

// errUsage marks a malformed flag value discovered after flag.Parse; it maps
// to exit code 2 like every other usage error.
var errUsage = experiments.ErrUsage

// options assembles what the drivers read from the flags. ctx is cancelled on
// SIGINT/SIGTERM so runs stop at the next governor check, checkpoints flush,
// and the process exits with code 4; the budget overlays (and so overrides)
// any limits block in a scenario spec.
func options(ctx context.Context) (*experiments.Options, error) {
	ks, err := parseScales(*scales)
	if err != nil {
		return nil, err
	}
	return &experiments.Options{
		RunOptions: experiments.RunOptions{
			Ctx: ctx,
			Budget: netsim.Budget{
				MaxEvents:   *budgetEvents,
				MaxWall:     *budgetWall,
				MaxHeap:     *budgetHeap,
				StallEvents: *stallEvents,
			},
			Duration: units.Time(*duration),
		},
		Seed:        *seed,
		Workers:     *workers,
		Series:      *series,
		Chart:       *chart,
		Faults:      *faultSpec,
		Sink:        sink,
		Stderr:      os.Stderr,
		Networks:    *networks,
		Repeats:     *repeats,
		Scales:      ks,
		Table1Scale: *table1Scale,
		Checkpoint:  *checkpoint,
		Analytic:    *analytic,
		Backend:     *backendName,
	}, nil
}

// exitCode maps an error to the process exit status: 0 ok, 2 usage,
// 4 interrupted, 3 governor-tripped, 1 anything else.
func exitCode(err error) int {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, errUsage):
		return 2
	case errors.Is(err, context.Canceled):
		return 4
	case errors.Is(err, experiments.ErrGovernor):
		return 3
	default:
		return 1
	}
}

// governed maps a run's error onto the exit vocabulary. A tripped governor
// (*netsim.RunError) prints its flight-recorder snapshot to stderr and becomes
// ErrGovernor (exit 3), except a cancellation, which stays context.Canceled
// (exit 4); any other error passes through.
func governed(err error) error {
	var re *netsim.RunError
	if !errors.As(err, &re) {
		return err
	}
	if re.Snapshot != nil {
		fmt.Fprint(os.Stderr, re.Snapshot.String())
	}
	if errors.Is(err, context.Canceled) {
		return err
	}
	return fmt.Errorf("%w: %v", experiments.ErrGovernor, err)
}

// finish flushes the metrics sink (even after a failed run, so an interrupted
// sweep still writes its partial report), stops any requested profiles —
// finish may os.Exit, so deferred stops would be skipped — and exits
// accordingly.
func finish(err error) {
	if ferr := sink.Flush(); err == nil {
		err = ferr
	}
	if perr := stopProfiles(); err == nil {
		err = perr
	}
	if err == nil {
		return
	}
	fmt.Fprintln(os.Stderr, "error:", err)
	os.Exit(exitCode(err))
}

// cpuProfileFile is the open -cpuprofile sink while profiling is running.
var cpuProfileFile *os.File

// startProfiles starts the -cpuprofile collection; -memprofile is written at
// stop time.
func startProfiles() error {
	if *cpuProfile == "" {
		return nil
	}
	f, err := os.Create(*cpuProfile)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	cpuProfileFile = f
	return nil
}

// stopProfiles stops the CPU profile and snapshots the heap (after a GC, so
// the profile reflects live memory, not garbage).
func stopProfiles() error {
	var err error
	if cpuProfileFile != nil {
		pprof.StopCPUProfile()
		err = cpuProfileFile.Close()
		cpuProfileFile = nil
	}
	if *memProfile != "" {
		f, ferr := os.Create(*memProfile)
		if ferr != nil {
			if err == nil {
				err = ferr
			}
			return err
		}
		runtime.GC()
		if werr := pprof.WriteHeapProfile(f); werr != nil && err == nil {
			err = werr
		}
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
		*memProfile = ""
	}
	return err
}

// sink gathers the per-run metrics registries when -metrics-out is set; nil
// (and inert) otherwise.
var sink *experiments.MetricsSink

// scenarioDriver is -scenario in the dispatch table's terms; of the optional
// flags it reads the run flags, -backend and -metrics-out.
var scenarioDriver = experiments.Driver{
	Name:  "-scenario",
	Flags: slices.Concat(experiments.RunFlags, []string{"backend", "metrics-out"}),
	Run:   runScenario,
}

// validateFlags resolves what to run and rejects what it could not honour,
// before anything runs or prints: enum and range flags outside their domain,
// an unknown experiment, and — given the names of the flags set explicitly —
// a flag that some driver reads but the selected one does not, -seed for a
// ring figure run without -faults, or a flag the -table1-scale preset sets.
func validateFlags(set []string) (*experiments.Driver, error) {
	switch *backendName {
	case "", "packet", "fluid":
	default:
		return nil, fmt.Errorf("%w: unknown -backend %q (want packet or fluid)", errUsage, *backendName)
	}
	switch *table1Scale {
	case "", "ci", "full":
	default:
		return nil, fmt.Errorf("%w: unknown -table1-scale %q (want \"ci\" or \"full\")", errUsage, *table1Scale)
	}
	if *duration < 0 {
		return nil, fmt.Errorf("%w: negative -duration %v", errUsage, *duration)
	}
	if *workers < 0 {
		return nil, fmt.Errorf("%w: negative -workers %d (0 means GOMAXPROCS)", errUsage, *workers)
	}
	if *expName != "" && *scenarioName != "" {
		return nil, fmt.Errorf("%w: give -exp or -scenario, not both", errUsage)
	}
	d := &scenarioDriver
	if *expName != "" {
		var err error
		if d, err = experiments.Lookup(*expName); err != nil {
			return nil, err
		}
	}
	for _, name := range set {
		var readers []string
		for _, r := range append(experiments.Drivers, scenarioDriver) {
			if slices.Contains(r.Flags, name) {
				readers = append(readers, r.Name)
			}
		}
		if len(readers) > 0 && !slices.Contains(d.Flags, name) {
			return nil, fmt.Errorf("%w: -%s is not read by %s (honoured by: %s)",
				errUsage, name, d.Name, strings.Join(readers, ", "))
		}
		// fig9 and fig10 read -seed only as the seed of the -faults injector.
		if name == "seed" && *faultSpec == "" && (d.Name == "fig9" || d.Name == "fig10") {
			return nil, fmt.Errorf("%w: -seed seeds the -faults injector of %s; give -faults too", errUsage, d.Name)
		}
		if *table1Scale != "" && (name == "networks" || name == "repeats" || name == "analytic" ||
			name == "scales" && *table1Scale == "ci") {
			return nil, fmt.Errorf("%w: -table1-scale %s sets -%s itself; give one or the other", errUsage, *table1Scale, name)
		}
	}
	return d, nil
}

func main() {
	flag.Parse()
	var set []string
	flag.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	driver, err := validateFlags(set)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(exitCode(err))
	}
	if *listScenarios {
		fmt.Println("Registered scenarios (run with -scenario <name>):")
		for _, name := range scenario.Names() {
			s, _ := scenario.Get(name)
			fmt.Printf("  %-28s %5d hosts  %-12s  %s\n", name, s.Topology.HostCount(), backends(s), s.Description)
		}
		return
	}
	if *expName == "" && *scenarioName == "" {
		flag.Usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	sink = experiments.NewMetricsSink(*metricsOut)
	opts, err := options(ctx)
	if err == nil {
		err = startProfiles()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(exitCode(err))
	}
	finish(governed(driver.Run(os.Stdout, opts)))
}

// backends is -list's engine column: the packet engine runs every scenario,
// the fluid solver those it builds — it refuses, naming the reason, what it
// cannot represent or whose deadlocks it cannot decide, exactly as
// `-scenario X -backend fluid` does.
func backends(s scenario.Spec) string {
	if _, err := (scenario.FluidBackend{}).Build(s, nil); err != nil {
		return "packet"
	}
	return "packet+fluid"
}

// runScenario resolves -scenario (registry name or spec file), applies the
// -duration and -backend overrides and runs it to completion. A run the
// analytic model contradicts — drops on a scheme predicted lossless, a violated
// envelope — fails after its summary is printed.
func runScenario(w io.Writer, o *experiments.Options) error {
	var spec scenario.Spec
	if strings.ContainsAny(*scenarioName, "./\\") {
		s, err := scenario.Load(*scenarioName)
		if err != nil {
			return err
		}
		spec = *s
	} else {
		s, ok := scenario.Get(*scenarioName)
		if !ok {
			return fmt.Errorf("unknown scenario %q (pass a .json file, or one of: %s)",
				*scenarioName, strings.Join(scenario.Names(), ", "))
		}
		spec = s
	}
	if o.Duration > 0 {
		spec.Run.DurationNs = o.Duration
	}
	if o.Backend != "" {
		spec.Sim.Backend = o.Backend
	}
	spec.Run.Analytic = true // as every -exp driver's run has it
	reg := o.Sink.Registry()
	sim, err := scenario.BuildBackend(spec, &scenario.Overrides{Metrics: reg})
	if err != nil {
		return err
	}
	res, rerr := sim.RunBounded(o.Ctx, o.Budget)
	if res == nil {
		return rerr
	}
	o.Sink.Record(spec.Name, reg, res.End)

	fmt.Fprintf(w, "scenario %s (%s)\n", spec.Name, spec.Scheme.FC)
	if spec.Description != "" {
		fmt.Fprintf(w, "  %s\n", spec.Description)
	}
	if res.Backend != "" && res.Backend != "packet" {
		fmt.Fprintf(w, "  backend: %s\n", res.Backend)
	}
	verdict := "no deadlock"
	if res.Deadlocked {
		verdict = fmt.Sprintf("DEADLOCK (%v) at %v", res.DeadlockKind, res.DeadlockAt)
	} else if ps, ok := sim.(*scenario.Sim); ok && ps.Detector == nil && ps.DCFIT == nil {
		verdict = "deadlock detection off"
	}
	fmt.Fprintf(w, "  ran to %v: %s\n", res.End, verdict)
	fmt.Fprintf(w, "  delivered %v, drops %d\n", res.Delivered, res.Drops)
	if reg != nil {
		fmt.Fprintf(w, "  invariant violations: %d\n", res.Violations)
	}
	if s := res.FaultStats; s != (faults.Stats{}) {
		fmt.Fprintf(w, "  faults: feedback dropped=%d delayed=%d\n", s.FeedbackDropped, s.FeedbackDelayed)
	}
	if rerr == nil && res.Analytic.Err != nil {
		return fmt.Errorf("%s: %w", spec.Name, res.Analytic.Err)
	}
	return rerr
}

// parseScales parses the -scales list. Every entry must be an integer: a
// token that is skipped instead of rejected silently drops a scale from the
// table (or prints an empty one).
func parseScales(list string) ([]int, error) {
	toks := strings.Split(list, ",")
	if toks[len(toks)-1] == "" {
		toks = toks[:len(toks)-1] // a trailing comma, or an empty list, names nothing
	}
	var ks []int
	for _, tok := range toks {
		k, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil {
			return nil, fmt.Errorf("%w: -scales %q: entry %q is not an integer", errUsage, list, tok)
		}
		if slices.Contains(ks, k) {
			return nil, fmt.Errorf("%w: -scales %q names arity %d twice", errUsage, list, k)
		}
		ks = append(ks, k)
	}
	if len(ks) == 0 {
		return nil, fmt.Errorf("%w: -scales %q names no fat-tree arity", errUsage, list)
	}
	return ks, nil
}
