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
// Experiments: fig5, fig9, fig10, fig12, fig13, fig14, fig15, table1,
// fig16, fig17, fig18, fig19, fig20, faults. See EXPERIMENTS.md for what
// each reports and how it maps to the paper.
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
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/gfcsim/gfc/internal/experiments"
	"github.com/gfcsim/gfc/internal/faults"
	"github.com/gfcsim/gfc/internal/netsim"
	"github.com/gfcsim/gfc/internal/runner"
	"github.com/gfcsim/gfc/internal/scenario"
	"github.com/gfcsim/gfc/internal/stats"
	"github.com/gfcsim/gfc/internal/units"
	"github.com/gfcsim/gfc/internal/viz"
)

var (
	expName    = flag.String("exp", "", "experiment to run (fig5, fig9, ..., table1)")
	duration   = flag.Duration("duration", 0, "override simulated duration (e.g. 50ms)")
	networks   = flag.Int("networks", 300, "table1/fig16/fig17: scenarios to scan per scale")
	repeats    = flag.Int("repeats", 3, "table1: workload repeats per scenario")
	scales     = flag.String("scales", "4,8", "table1: comma-separated fat-tree arities")
	seed       = flag.Int64("seed", 1, "base random seed")
	workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "sweeps and the fault matrix: cells simulated concurrently (0 = GOMAXPROCS)")
	series     = flag.Bool("series", false, "print raw time-series data points")
	chart      = flag.Bool("chart", false, "render time series as ASCII charts")
	metricsOut = flag.String("metrics-out", "",
		"write per-channel metrics reports (JSON, or CSV when the path ends in .csv)\nand fail on invariant violations; supported by fig9/fig10/fig12/fig13/fig14")
	faultSpec = flag.String("faults", "",
		"fault scenario: a preset name (resume-loss, feedback-loss, feedback-delay,\nflap, degrade) or a path to a JSON spec file; applies to fig9/fig10 and the\nfaults matrix (deterministic per -seed)")
	scenarioName = flag.String("scenario", "",
		"run a declarative scenario: a registered name (see -list) or a path to a\nspec JSON file (format in EXPERIMENTS.md)")
	listScenarios = flag.Bool("list", false, "list the registered scenarios and exit")
	checkpoint    = flag.String("checkpoint", "",
		"sweeps: JSONL checkpoint file; completed cells are flushed as they finish\nand a rerun with the same flags resumes, replaying them instead of recomputing")
	budgetEvents = flag.Uint64("budget-events", 0,
		"abort any single run after this many simulator events (0 = unlimited)")
	budgetWall = flag.Duration("budget-wall", 0,
		"abort any single run after this much wall-clock time (0 = unlimited)")
	budgetHeap = flag.Uint64("budget-heap", 0,
		"abort any single run once the process heap exceeds this many bytes\n(OOM guard, sampled every 64 governor checks; 0 = unlimited)")
	stallEvents = flag.Uint64("stall-events", 0,
		"declare livelock if this many events pass with no sim-time, delivery or\ndrop progress (0 = watchdog off)")
	jobTimeout = flag.Duration("job-timeout", 0,
		"sweeps: per-cell wall-clock deadline; a cell that blows it is quarantined\nand the sweep continues (0 = none)")
	analytic = flag.Bool("analytic", false,
		"sweeps: enforce the network-wide analytic checker on every repeat\n(internal/analytic; violated repeats quarantine their cell; changes the\ncheckpoint key)")
	table1Scale = flag.String("table1-scale", "",
		"table1: preset overriding the count flags — \"ci\" (k=4, 200 networks × 1\nrepeat, checker on: the CI gate) or \"full\" (paper scale: 10000 networks ×\n100 repeats, 1 flow/host, checker on; run with -checkpoint, see\nEXPERIMENTS.md)")
	retries = flag.Int("retries", 2,
		"sweeps: re-run a cell this many times after a transient failure (wall or\nheap budget trip) with seed-derived backoff; deterministic failures —\npanics, invariant violations, event budgets — never retry (0 = off)")
	retryBackoff = flag.Duration("retry-backoff", time.Second,
		"sweeps: base backoff before the first retry; doubles per attempt with\nseed-derived jitter")
	degrade = flag.Bool("degrade", true,
		"sweeps: when a packet cell exhausts its retry budget on transient\nfailures, recompute it on the fluid backend where the analytic model\nvouches for the result (cells it cannot vouch for quarantine); degraded\ncells are marked in provenance and the checkpoint key, and a sweep with\ndegraded cells exits 5")
	backendName = flag.String("backend", "",
		"simulation backend for -scenario and the sweeps: \"packet\" (default;\nreplays every packet), \"fluid\" (network-of-queues rate integration —\norders of magnitude faster, rejects specs it cannot represent faithfully)\nor \"auto\" (fluid where faithful, packet otherwise; sweeps additionally\nre-run cells near the analytic envelope at packet fidelity)")
	cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile = flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
)

// ctx is cancelled on SIGINT/SIGTERM so runs stop at the next governor check,
// checkpoints flush, and the process exits with code 4.
var ctx context.Context

// errGovernor marks a run (or sweep cell) stopped by the run governor:
// budget blown, livelock, or quarantined cells. It maps to exit code 3.
var errGovernor = errors.New("run governor tripped")

// errUsage marks a malformed flag value discovered after flag.Parse; it maps
// to exit code 2 like every other usage error.
var errUsage = errors.New("usage")

// errDegraded marks a sweep that completed but holds degraded-fidelity
// (fluid-computed) cells: the numbers are vouched for by the analytic model
// yet below packet fidelity, so scripts get exit code 5 to tell "clean"
// from "self-healed". Quarantined cells (exit 3) take precedence.
var errDegraded = errors.New("sweep completed with degraded-fidelity cells")

// flagBudget assembles the per-run Budget from the -budget-* / -stall-events
// flags; it overlays (and so overrides) any limits block in a scenario spec.
func flagBudget() netsim.Budget {
	return netsim.Budget{
		MaxEvents:   *budgetEvents,
		MaxWall:     *budgetWall,
		MaxHeap:     *budgetHeap,
		StallEvents: *stallEvents,
	}
}

// flagRetry assembles the sweep retry policy from -retries/-retry-backoff.
func flagRetry() runner.Retry {
	return runner.Retry{Max: *retries, BackoffBase: *retryBackoff}
}

// exitCode maps an error to the process exit status: 0 ok, 2 usage,
// 4 interrupted, 3 governor-tripped, 5 degraded-fidelity cells, 1 anything
// else.
func exitCode(err error) int {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, errUsage):
		return 2
	case errors.Is(err, context.Canceled):
		return 4
	case errors.Is(err, errGovernor):
		return 3
	case errors.Is(err, errDegraded):
		return 5
	default:
		return 1
	}
}

// governed maps a run's error onto the exit vocabulary. A tripped governor
// (*netsim.RunError) prints its flight-recorder snapshot to stderr and becomes
// errGovernor (exit 3), except a cancellation, which stays context.Canceled
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
	return fmt.Errorf("%w: %v", errGovernor, err)
}

// finish flushes the metrics sink (even after a failed run, so an interrupted
// sweep still writes its partial report), stops any requested profiles —
// finish may os.Exit, so deferred stops would be skipped — and exits
// accordingly.
func finish(err error) {
	if ferr := sink.flush(); err == nil {
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
// the profile reflects live memory, not garbage). Idempotent: finish may run
// on both the scenario and the experiment path.
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
var sink *metricsSink

// validateFlags rejects enum and range flags no driver could honour, before
// anything runs or prints.
func validateFlags() error {
	switch *backendName {
	case "", "packet", "fluid", "auto":
	default:
		return fmt.Errorf("%w: unknown -backend %q (want packet, fluid or auto)", errUsage, *backendName)
	}
	switch *table1Scale {
	case "", "ci", "full":
	default:
		return fmt.Errorf("%w: unknown -table1-scale %q (want \"ci\" or \"full\")", errUsage, *table1Scale)
	}
	if *duration < 0 {
		return fmt.Errorf("%w: negative -duration %v", errUsage, *duration)
	}
	if *workers < 0 {
		return fmt.Errorf("%w: negative -workers %d (0 means GOMAXPROCS)", errUsage, *workers)
	}
	if *expName == "faults" && *faultSpec != "" {
		// The matrix compiles its columns from presets by name.
		if _, err := faults.Preset(*faultSpec); err != nil {
			return fmt.Errorf("%w: -exp faults wants a preset name in -faults: %v", errUsage, err)
		}
	}
	return nil
}

func main() {
	flag.Parse()
	if err := validateFlags(); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(exitCode(err))
	}
	if *listScenarios {
		fmt.Println("Registered scenarios (run with -scenario <name>):")
		for _, name := range scenario.Names() {
			s, _ := scenario.Get(name)
			be := "packet"
			if (scenario.FluidBackend{}).Supports(&s) == nil {
				be = "packet+fluid"
			}
			fmt.Printf("  %-28s %5d hosts  %-12s  %s\n", name, s.Topology.HostCount(), be, s.Description)
		}
		return
	}
	if *expName == "" && *scenarioName == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *expName != "" && *scenarioName != "" {
		fmt.Fprintln(os.Stderr, "give -exp or -scenario, not both")
		os.Exit(2)
	}
	var stop context.CancelFunc
	ctx, stop = signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	sink = newMetricsSink(*metricsOut)
	if err := startProfiles(); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	if *scenarioName != "" {
		finish(runScenario())
		return
	}
	var err error
	switch *expName {
	case "fig5":
		err = runFig5()
	case "fig9":
		err = runRing(experiments.PFC, experiments.GFCBuf)
	case "fig10":
		err = runRing(experiments.CBFC, experiments.GFCTime)
	case "fig12":
		err = runCaseStudy(experiments.PFC, experiments.GFCBuf)
	case "fig13":
		err = runCaseStudy(experiments.CBFC, experiments.GFCTime)
	case "fig14":
		err = runVictim()
	case "fig15":
		fmt.Print(experiments.Fig15Rows().String())
	case "table1", "fig16", "fig17":
		err = runSweep(*expName)
	case "fig18":
		err = runEvolution()
	case "fig19":
		err = runOverhead()
	case "fig20":
		err = runFig20()
	case "faults":
		err = runFaultMatrix()
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *expName)
		os.Exit(2)
	}
	finish(err)
}

// runScenario resolves -scenario (registry name or spec file), applies the
// -duration override and runs it to completion.
func runScenario() error {
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
	if *duration > 0 {
		spec.Run.DurationNs = units.Time(*duration)
	}
	if *backendName != "" {
		spec.Sim.Backend = *backendName
	}
	reg := sink.registry()
	sim, err := scenario.BuildBackend(spec, &scenario.Overrides{Metrics: reg})
	if err != nil {
		return err
	}
	res, rerr := sim.RunBounded(ctx, flagBudget())
	if res == nil {
		return rerr
	}
	sink.record(spec.Name, reg, res.End)

	fmt.Printf("scenario %s (%s)\n", spec.Name, spec.Scheme.FC)
	if spec.Description != "" {
		fmt.Printf("  %s\n", spec.Description)
	}
	if res.Backend != "" && res.Backend != "packet" {
		fmt.Printf("  backend: %s\n", res.Backend)
	}
	verdict := "no deadlock"
	if res.Deadlocked {
		verdict = fmt.Sprintf("DEADLOCK (%v) at %v", res.DeadlockKind, res.DeadlockAt)
	} else if ps, ok := sim.(*scenario.Sim); ok && ps.Detector == nil {
		verdict = "deadlock detection off"
	}
	fmt.Printf("  ran to %v: %s\n", res.End, verdict)
	fmt.Printf("  delivered %v, drops %d\n", res.Delivered, res.Drops)
	if reg != nil {
		fmt.Printf("  invariant violations: %d\n", res.Violations)
	}
	if s := res.FaultStats; s != (faults.Stats{}) {
		fmt.Printf("  faults: feedback dropped=%d delayed=%d\n", s.FeedbackDropped, s.FeedbackDelayed)
	}
	return governed(rerr)
}

func dur(def units.Time) units.Time {
	if *duration > 0 {
		return units.Time(*duration)
	}
	return def
}

func printSeries(name string, s *stats.Series, max int) {
	if *chart {
		c := viz.DefaultChart(name)
		switch {
		case strings.Contains(name, "rate"):
			c.FormatY = viz.FormatRate
		case strings.Contains(name, "queue"):
			c.FormatY = viz.FormatSize
		}
		fmt.Print(c.Render(s))
	}
	if !*series {
		return
	}
	d := s.Downsample(max)
	fmt.Printf("# %s\n", name)
	for i := range d.T {
		fmt.Printf("%.3f\t%.0f\n", d.T[i].Millis(), d.V[i])
	}
}

func runFig5() error {
	fmt.Println("Figure 5: input rate and queue evolution, 2-to-1 congestion (C=10G, τ=25µs)")
	for _, fc := range []experiments.FC{experiments.PFC, experiments.GFCConceptual} {
		res, err := experiments.RunFig5(fc, dur(20*units.Millisecond))
		if err != nil {
			return err
		}
		fmt.Printf("%-16s steady queue %-8v (paper: PFC saws at XON/XOFF=77/80KB; GFC settles at B_s=75KB) drops=%d\n",
			res.FC, res.SteadyQueue, res.Drops)
		printSeries(string(res.FC)+" queue (bytes)", res.Queue, 60)
		printSeries(string(res.FC)+" rate (bps)", res.Rate, 60)
	}
	return nil
}

func runRing(pause, gentle experiments.FC) error {
	spec, err := loadFaultSpec()
	if err != nil {
		return err
	}
	// ringFaults compiles the -faults scenario against the exact ring the
	// section simulates; nil when no scenario was requested.
	ringFaults := func(hostsPerSwitch int) (*faults.Plan, error) {
		if spec == nil {
			return nil, nil
		}
		return spec.Compile(experiments.RingTopology(hostsPerSwitch))
	}
	fmt.Printf("Figures 9/10: 3-switch ring, testbed parameters (1MB buffers, τ=90µs)\n")
	if spec != nil {
		fmt.Printf("with injected faults: %s (seed %d)\n", spec.Name, *seed)
	}
	fmt.Println("\n(a) deadlock formation regime (2 hosts/switch):")
	plan, err := ringFaults(2)
	if err != nil {
		return err
	}
	for _, fc := range []experiments.FC{pause, gentle} {
		reg := sink.registry()
		d := dur(200 * units.Millisecond)
		res, err := experiments.RunRing(experiments.RingConfig{
			FC: fc, Duration: d, HostsPerSwitch: 2, Metrics: reg,
			Faults: plan, FaultSeed: *seed,
			Ctx: ctx, Budget: flagBudget(),
		})
		if err != nil {
			return governed(err)
		}
		sink.record("ring-formation-"+string(fc), reg, d)
		verdict := "no deadlock"
		if res.Deadlocked {
			verdict = fmt.Sprintf("DEADLOCK (%v) at %v", res.DeadlockKind, res.DeadlockAt)
		}
		fmt.Printf("  %-12s %-34s drops=%d%s\n", fc, verdict, res.Drops, faultNote(res))
	}
	fmt.Println("\n(b) steady state, critically loaded (1 host/switch):")
	if plan, err = ringFaults(1); err != nil {
		return err
	}
	for _, fc := range []experiments.FC{pause, gentle} {
		reg := sink.registry()
		d := dur(60 * units.Millisecond)
		cfg := experiments.RingConfig{
			FC: fc, Duration: d, Metrics: reg,
			Faults: plan, FaultSeed: *seed,
			Ctx: ctx, Budget: flagBudget(),
		}
		if plan != nil && fc == experiments.GFCBuf {
			// Loss repair under faulted feedback, as in the matrix.
			cfg.Refresh = 90 * units.Microsecond
		}
		res, err := experiments.RunRing(cfg)
		if err != nil {
			return governed(err)
		}
		sink.record("ring-steady-"+string(fc), reg, d)
		fmt.Printf("  %-12s steady queue %-9v steady rate %-9v (paper GFC: ≈840KB/5G buffer-based, ≈745KB/5G time-based)%s\n",
			fc, res.SteadyQueue, res.SteadyRate, faultNote(res))
		printSeries(string(fc)+" queue", res.Queue, 60)
	}
	return nil
}

// loadFaultSpec resolves the -faults flag: empty means none, a value with
// path-ish characters is a JSON spec file, anything else a preset name.
func loadFaultSpec() (*faults.Spec, error) {
	if *faultSpec == "" {
		return nil, nil
	}
	if strings.ContainsAny(*faultSpec, "./\\") {
		return faults.Load(*faultSpec)
	}
	return faults.Preset(*faultSpec)
}

// faultNote renders a run's injected-fault counters; empty for clean runs.
func faultNote(res *experiments.RingResult) string {
	s := res.FaultStats
	if s == (faults.Stats{}) {
		return ""
	}
	return fmt.Sprintf("  [feedback dropped=%d delayed=%d]", s.FeedbackDropped, s.FeedbackDelayed)
}

func runFaultMatrix() error {
	cfg := experiments.FaultMatrixConfig{
		Duration: dur(60 * units.Millisecond),
		Seed:     *seed,
		Ctx:      ctx,
		Budget:   flagBudget(),
		Retry:    flagRetry(),
		Workers:  *workers,
	}
	if *faultSpec != "" {
		// Restrict the columns to the requested preset (validateFlags
		// vetted the name), plus the clean baseline for contrast.
		cfg.Scenarios = []string{experiments.CleanScenario, *faultSpec}
	}
	cells, err := experiments.RunFaultMatrix(cfg)
	if err != nil {
		return governed(err)
	}
	fmt.Println("Fault matrix: scheme × scenario on the critically loaded fig9 ring")
	fmt.Print(experiments.FaultMatrixRows(cells).String())
	fmt.Println("(resume-loss wedges the on/off schemes shut — one lost RESUME/QRESUME is a permanent")
	fmt.Println(" pause for PFC and BFC alike — while both GFC variants keep every flow progressing,")
	fmt.Println(" lossless, under every scenario; DCFIT convicts only where pause edges close a cycle)")
	return nil
}

func runCaseStudy(pause, gentle experiments.FC) error {
	fmt.Println("Figures 12/13: k=4 fat-tree with failed links, CBD C1→A3→C2→A7→C1")
	fmt.Println("\n(a) deadlock formation (with cross-flow squeeze):")
	for _, fc := range []experiments.FC{pause, gentle} {
		reg := sink.registry()
		d := dur(60 * units.Millisecond)
		res, _, err := experiments.RunCaseStudy(experiments.CaseStudyConfig{
			FC: fc, Duration: d, WithCross: true, Metrics: reg,
		})
		if err != nil {
			return err
		}
		sink.record("casestudy-formation-"+string(fc), reg, d)
		verdict := "no deadlock"
		if res.Deadlocked {
			verdict = fmt.Sprintf("DEADLOCK at %v", res.DeadlockAt)
		}
		fmt.Printf("  %-12s %-22s drops=%d\n", fc, verdict, res.Drops)
	}
	fmt.Println("\n(b) steady state (the paper's four flows):")
	for _, fc := range []experiments.FC{pause, gentle} {
		reg := sink.registry()
		d := dur(60 * units.Millisecond)
		res, _, err := experiments.RunCaseStudy(experiments.CaseStudyConfig{
			FC: fc, Duration: d, Metrics: reg,
		})
		if err != nil {
			return err
		}
		sink.record("casestudy-steady-"+string(fc), reg, d)
		fmt.Printf("  %-12s per-flow rates:", fc)
		for _, r := range res.FlowRates {
			fmt.Printf(" %v", r)
		}
		fmt.Printf("  (paper: 5G each under GFC)\n")
	}
	return nil
}

func runVictim() error {
	fmt.Println("Figure 14: victim flow H12→H4 (shares switches with the CBD, avoids its channels)")
	for _, fc := range experiments.AllFCs() {
		reg := sink.registry()
		d := dur(60 * units.Millisecond)
		res, _, err := experiments.RunCaseStudy(experiments.CaseStudyConfig{
			FC: fc, Duration: d,
			WithCross: true, WithVictim: true, Metrics: reg,
		})
		if err != nil {
			return err
		}
		sink.record("victim-"+string(fc), reg, d)
		verdict := "alive"
		if res.Deadlocked {
			verdict = "DEADLOCK"
		}
		progress := "frozen"
		if res.VictimProgressed {
			progress = "progressing"
		}
		fmt.Printf("  %-12s %-9s victim: %v delivered, %s\n",
			fc, verdict, res.VictimTotal, progress)
	}
	fmt.Println("(paper: the victim freezes once PFC/CBFC deadlock; under GFC it keeps moving)")
	return nil
}

// parseScales parses the -scales list. Every entry must be an integer: a
// token that is skipped instead of rejected silently drops a scale from the
// table (or prints an empty one).
func parseScales(list string) ([]int, error) {
	var ks []int
	for _, tok := range splitComma(list) {
		k, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil {
			return nil, fmt.Errorf("%w: -scales %q: entry %q is not an integer", errUsage, list, tok)
		}
		ks = append(ks, k)
	}
	if len(ks) == 0 {
		return nil, fmt.Errorf("%w: -scales %q names no fat-tree arity", errUsage, list)
	}
	return ks, nil
}

func runSweep(which string) error {
	ks, err := parseScales(*scales)
	if err != nil {
		return err
	}
	if *table1Scale == "ci" {
		ks = []int{4}
	}
	results := make(map[int]map[experiments.FC]*experiments.SweepResult)
	quarantined, degradedCells := 0, 0
	for _, k := range ks {
		results[k] = make(map[experiments.FC]*experiments.SweepResult)
		cfg := experiments.DefaultSweep(k)
		cfg.Networks = *networks
		cfg.Repeats = *repeats
		cfg.Seed = *seed
		cfg.Duration = dur(cfg.Duration)
		cfg.Workers = *workers
		cfg.Budget = flagBudget()
		cfg.JobTimeout = *jobTimeout
		cfg.Checkpoint = *checkpoint
		cfg.Analytic = *analytic
		cfg.Backend = *backendName
		cfg.Retry = flagRetry()
		cfg.Degrade = *degrade && *backendName != "fluid"
		switch *table1Scale {
		case "ci":
			// The CI gate: a k=4 slice with the checker enforced, small
			// enough to kill and resume inside a CI step.
			cfg.Networks, cfg.Repeats, cfg.Analytic = 200, 1, true
		case "full":
			// §6.2.3 paper scale. Resumable: run with -checkpoint and the
			// governor flags; see EXPERIMENTS.md for the overnight recipe.
			cfg.Networks, cfg.Repeats = 10000, 100
			cfg.FlowsPerHost, cfg.Analytic = 1, true
		}
		for _, fc := range experiments.AllFCs() {
			fmt.Fprintf(os.Stderr, "sweep k=%d %s...\n", k, fc)
			res, err := experiments.RunSweep(ctx, fc, cfg)
			if err != nil {
				// Interrupted: the checkpoint has every finished cell, so
				// skip the (partial) tables and report the resume path.
				if *checkpoint != "" && errors.Is(err, context.Canceled) {
					fmt.Fprintf(os.Stderr, "interrupted; rerun with -checkpoint %s to resume\n", *checkpoint)
				}
				return err
			}
			if sum := res.ResilienceSummary(); sum != "" {
				fmt.Fprintf(os.Stderr, "self-healing report (k=%d %s):\n%s", k, fc, sum)
			}
			if len(res.Failures) > 0 {
				fmt.Fprintln(os.Stderr, res.FailureSummary())
				quarantined += len(res.Failures)
			}
			degradedCells += len(res.Degraded)
			results[k][fc] = res
		}
	}
	switch which {
	case "table1":
		fmt.Println("Table 1: deadlock cases (paper: PFC=CBFC>0 and falling with scale; GFC=0)")
		fmt.Print(experiments.Table1Rows(results, ks).String())
	case "fig16":
		fmt.Println("Figure 16: average available bandwidth over deadlock-free runs")
		fmt.Print(experiments.Fig16Rows(results, ks).String())
	case "fig17":
		fmt.Println("Figure 17: average slowdown (normalised to the per-scale minimum)")
		fmt.Print(experiments.Fig17Rows(results, ks).String())
	}
	if quarantined > 0 {
		return fmt.Errorf("%w: %d sweep cells quarantined", errGovernor, quarantined)
	}
	if degradedCells > 0 {
		return fmt.Errorf("%w: %d", errDegraded, degradedCells)
	}
	return nil
}

func runEvolution() error {
	fmt.Println("Figure 18: network throughput evolution on a deadlock-prone scenario")
	for _, fc := range []experiments.FC{experiments.PFC, experiments.GFCBuf} {
		cfg := experiments.DefaultEvolution(fc)
		cfg.Duration = dur(cfg.Duration)
		res, err := experiments.RunEvolution(cfg)
		if err != nil {
			return err
		}
		verdict := "no deadlock"
		if res.Deadlocked {
			verdict = fmt.Sprintf("DEADLOCK at %v", res.DeadlockAt)
		}
		fmt.Printf("  %-12s %-22s final aggregate %-10v drops=%d\n",
			fc, verdict, res.FinalRate, res.Drops)
		if *series {
			for i, r := range res.Throughput.Rates() {
				fmt.Printf("%.1f\t%.0f\n", (units.Time(i) * res.Throughput.Width).Millis(), float64(r))
			}
		}
	}
	return nil
}

func runOverhead() error {
	res, err := experiments.RunOverhead(experiments.OverheadConfig{
		Seed: *seed, Duration: dur(10 * units.Millisecond),
	})
	if err != nil {
		return err
	}
	fmt.Println("Figure 19: buffer-based GFC feedback bandwidth per port (fraction of 10G)")
	fmt.Printf("  mean %.4f%%  p99 %.4f%%  max %.4f%%\n",
		res.Mean*100, res.P99*100, res.Max*100)
	fmt.Println("  (paper: mean 0.21%, 99% of ports < 0.4%, max 0.49%)")
	return nil
}

func runFig20() error {
	res, err := experiments.RunFig20(dur(20 * units.Millisecond))
	if err != nil {
		return err
	}
	fmt.Println("Figure 20: GFC + DCQCN interaction (8:1 incast, ECN K=40KB)")
	fmt.Printf("  max ingress queue %v (buffer 300KB), final DCQCN rate %v (fair share 1.25G), drops=%d\n",
		res.MaxQueue, res.FinalDCQCN, res.Drops)
	printSeries("queue", res.Queue, 60)
	printSeries("dcqcn-rate", res.DCQCNRate, 60)
	printSeries("gfc-rate", res.GFCRate, 60)
	return nil
}

func splitComma(s string) []string {
	var out []string
	cur := ""
	for _, r := range s {
		if r == ',' {
			out = append(out, cur)
			cur = ""
			continue
		}
		cur += string(r)
	}
	if cur != "" {
		out = append(out, cur)
	}
	return out
}
