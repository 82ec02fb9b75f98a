package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"

	"github.com/gfcsim/gfc/internal/faults"
	"github.com/gfcsim/gfc/internal/scenario"
	"github.com/gfcsim/gfc/internal/stats"
	"github.com/gfcsim/gfc/internal/units"
	"github.com/gfcsim/gfc/internal/viz"
)

// This file is the -exp side of cmd/gfcsim: one ordered dispatch table, and
// per experiment the section that runs its drivers and prints the paper's
// expected values beside the measured ones. Sections write to an io.Writer
// so the narrative is testable; they return a run's error as the driver
// produced it (a *netsim.RunError for a tripped governor) and leave the
// mapping onto exit codes to the CLI.

// ErrUsage marks a request no driver could honour (an unknown experiment);
// ErrGovernor a sweep that completed with quarantined cells.
var (
	ErrUsage    = errors.New("usage")
	ErrGovernor = errors.New("run governor tripped")
)

// Options are the CLI's settings as the sections read them.
type Options struct {
	// RunOptions governs every run of the section: context, budget and the
	// -duration override. Its Metrics stays nil; each sub-run draws a
	// registry of its own from Sink.
	RunOptions
	Seed    int64
	Workers int
	// Series prints raw time-series points, Chart renders them as ASCII.
	Series, Chart bool
	// Faults is the -faults value: a preset name or a JSON spec file.
	Faults string
	// Sink gathers one metrics report per sub-run; nil (inert) without
	// -metrics-out.
	Sink *MetricsSink
	// Stderr receives sweep progress and self-healing reports.
	Stderr io.Writer

	// The sweep settings (table1).
	Networks, Repeats int
	Scales            []int
	Table1Scale       string
	Checkpoint        string
	Analytic          bool
	Backend           string
}

// sub returns the run options of one sub-run: the section's, with a fresh
// registry from the sink.
func (o *Options) sub() RunOptions {
	ro := o.RunOptions
	ro.Metrics = o.Sink.Registry()
	return ro
}

// Driver is one -exp experiment.
type Driver struct {
	Name string
	// Flags names the optional CLI flags the driver reads: RunFlags for
	// each driver that simulates, -metrics-out for each that records its
	// runs into Options.Sink, -series and -chart for each that prints a
	// time series, -seed for each that seeds a workload, a sweep or a fault
	// injector with Options.Seed, and -workers for each that runs cells on
	// the runner pool. A flag listed by some driver and set for one that
	// does not list it is a usage error, as is -seed for fig9 or fig10
	// without the -faults injector it seeds.
	Flags []string
	Run   func(w io.Writer, o *Options) error
}

// RunFlags are the flags that reach every run a driver simulates through
// RunOptions: the -duration override and the governor's bounds.
var RunFlags = []string{"duration", "budget-events", "budget-wall", "budget-heap", "stall-events"}

var (
	// metricsFlags are the flags of a single-run section: each run it makes
	// records one report into the sink.
	metricsFlags = slices.Concat(RunFlags, []string{"metrics-out"})
	// seriesFlags are those of a single-run section that prints its time
	// series raw (-series) and as ASCII charts (-chart).
	seriesFlags = slices.Concat(metricsFlags, []string{"series", "chart"})
	faultFlags  = slices.Concat(seriesFlags, []string{"faults", "seed"})
	sweepFlags  = slices.Concat(RunFlags, []string{"backend", "networks", "repeats", "scales", "table1-scale", "analytic", "checkpoint", "seed", "workers"})
)

// Drivers is the dispatch table, in the paper's order.
var Drivers = []Driver{
	{"fig5", seriesFlags, fig5Section},
	{"fig9", faultFlags, ringSection(PFC, GFCBuf)},
	{"fig10", faultFlags, ringSection(CBFC, GFCTime)},
	{"fig12", metricsFlags, caseStudySection(PFC, GFCBuf)},
	{"fig13", metricsFlags, caseStudySection(CBFC, GFCTime)},
	{"fig14", metricsFlags, victimSection},
	{"fig15", nil, func(w io.Writer, _ *Options) error {
		_, err := fmt.Fprint(w, Fig15Rows().String())
		return err
	}},
	{"table1", sweepFlags, sweepSection},
	{"fig18", slices.Concat(metricsFlags, []string{"series"}), evolutionSection},
	{"fig19", slices.Concat(metricsFlags, []string{"seed"}), overheadSection},
	{"fig20", seriesFlags, fig20Section},
	{"faults", slices.Concat(RunFlags, []string{"faults", "seed", "workers"}), faultMatrixSection},
}

// Names lists the table's experiments, in order.
func Names() []string {
	names := make([]string, len(Drivers))
	for i, d := range Drivers {
		names[i] = d.Name
	}
	return names
}

// Lookup resolves an -exp name.
func Lookup(name string) (*Driver, error) {
	for i := range Drivers {
		if Drivers[i].Name == name {
			return &Drivers[i], nil
		}
	}
	return nil, fmt.Errorf("%w: unknown experiment %q (want one of %s)", ErrUsage, name, strings.Join(Names(), ", "))
}

func (o *Options) printSeries(w io.Writer, name string, s *stats.Series, max int) {
	if o.Chart {
		c := viz.Chart{YLabel: name}
		switch {
		case strings.Contains(name, "rate"):
			c.FormatY = viz.FormatRate
		case strings.Contains(name, "queue"):
			c.FormatY = viz.FormatSize
		}
		fmt.Fprint(w, c.Render(s))
	}
	if !o.Series {
		return
	}
	d := s.Downsample(max)
	fmt.Fprintf(w, "# %s\n", name)
	for i := range d.T {
		fmt.Fprintf(w, "%.3f\t%.0f\n", d.T[i].Millis(), d.V[i])
	}
}

func fig5Section(w io.Writer, o *Options) error {
	fmt.Fprintln(w, "Figure 5: input rate and queue evolution, 2-to-1 congestion (C=10G, τ=25µs)")
	for _, fc := range []FC{PFC, GFCConceptual} {
		ro := o.sub()
		res, err := RunFig5(fc, ro)
		if err != nil {
			return err
		}
		o.Sink.Record(res.Name, ro.Metrics, res.End)
		fmt.Fprintf(w, "%-16s steady queue %-8v (paper: PFC saws at XON/XOFF=77/80KB; GFC settles at B_s=75KB) drops=%d\n",
			res.FC, res.SteadyQueue, res.Drops)
		o.printSeries(w, string(res.FC)+" queue (bytes)", res.Queue, 60)
		o.printSeries(w, string(res.FC)+" rate (bps)", res.Rate, 60)
	}
	return nil
}

// ringFaults resolves -faults into the faults section of every faulted ring
// row, seeded with seed, and names the scenario: nil for none, a value with
// path-ish characters a JSON spec file (inline), anything else a preset. The
// scenario is compiled on both rings the section runs, so a bad value fails
// before anything prints; an unknown preset is a usage error.
func ringFaults(value string, seed int64) (*scenario.FaultsSpec, string, error) {
	if value == "" {
		return nil, "", nil
	}
	section := &scenario.FaultsSpec{Seed: seed}
	var (
		spec *faults.Spec
		err  error
	)
	if strings.ContainsAny(value, "./\\") {
		if spec, err = faults.Load(value); err != nil {
			return nil, "", err
		}
		section.Inline = spec
	} else {
		if spec, err = faults.Preset(value); err != nil {
			return nil, "", fmt.Errorf("%w: -faults: %v", ErrUsage, err)
		}
		section.Preset = value
	}
	for _, hostsPerSwitch := range []int{2, 1} {
		if _, err := spec.Compile(RingTopology(hostsPerSwitch)); err != nil {
			return nil, "", err
		}
	}
	return section, spec.Name, nil
}

// verdict renders a run's deadlock verdict; the ring panels also name the
// kind (a fault can wedge a channel without a circular wait).
func verdict(res *scenario.Result, kind bool) string {
	switch {
	case !res.Deadlocked:
		return "no deadlock"
	case kind:
		return fmt.Sprintf("DEADLOCK (%v) at %v", res.DeadlockKind, res.DeadlockAt)
	default:
		return fmt.Sprintf("DEADLOCK at %v", res.DeadlockAt)
	}
}

func ringSection(pause, gentle FC) func(io.Writer, *Options) error {
	return func(w io.Writer, o *Options) error {
		section, faultName, err := ringFaults(o.Faults, o.Seed)
		if err != nil {
			return err
		}
		// run simulates one panel row: the faulted ring when -faults is set.
		run := func(fc FC, hostsPerSwitch int, name string) (*RingResult, string, error) {
			spec := scenario.Ring(fc, hostsPerSwitch)
			if section != nil {
				spec = scenario.RingFaulted(fc, hostsPerSwitch)
				spec.Faults = section
			}
			ro := o.sub()
			res, err := RunRing(spec, ro)
			if err != nil {
				return nil, "", err
			}
			o.Sink.Record(name+string(fc), ro.Metrics, res.End)
			note := ""
			if s := res.FaultStats; s != (faults.Stats{}) {
				note = fmt.Sprintf("  [feedback dropped=%d delayed=%d]", s.FeedbackDropped, s.FeedbackDelayed)
			}
			return res, note, nil
		}
		fmt.Fprintf(w, "Figures 9/10: 3-switch ring, testbed parameters (1MB buffers, τ=90µs)\n")
		if section != nil {
			fmt.Fprintf(w, "with injected faults: %s (seed %d)\n", faultName, o.Seed)
		}
		fmt.Fprintln(w, "\n(a) deadlock formation regime (2 hosts/switch):")
		for _, fc := range []FC{pause, gentle} {
			res, note, err := run(fc, 2, "ring-formation-")
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "  %-12s %-34s drops=%d%s\n", fc, verdict(res.Result, true), res.Drops, note)
		}
		fmt.Fprintln(w, "\n(b) steady state, critically loaded (1 host/switch):")
		for _, fc := range []FC{pause, gentle} {
			res, note, err := run(fc, 1, "ring-steady-")
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "  %-12s steady queue %-9v steady rate %-9v (paper GFC: ≈840KB/5G buffer-based, ≈745KB/5G time-based)%s\n",
				fc, res.SteadyQueue, res.SteadyRate, note)
			o.printSeries(w, string(fc)+" queue", res.Queue, 60)
		}
		return nil
	}
}

func faultMatrixSection(w io.Writer, o *Options) error {
	cfg := FaultMatrixConfig{
		Duration: o.Duration,
		Seed:     o.Seed,
		Ctx:      o.Ctx,
		Budget:   o.Budget,
		Workers:  o.Workers,
	}
	if o.Faults != "" {
		// The matrix compiles its columns from presets by name: restrict
		// them to the requested one, plus the clean baseline for contrast.
		if _, err := faults.Preset(o.Faults); err != nil {
			return fmt.Errorf("%w: -exp faults wants a preset name in -faults: %v", ErrUsage, err)
		}
		cfg.Scenarios = []string{CleanScenario, o.Faults}
	}
	cells, err := RunFaultMatrix(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Fault matrix: scheme × scenario on the critically loaded fig9 ring")
	fmt.Fprint(w, FaultMatrixRows(cells).String())
	fmt.Fprintln(w, "(resume-loss wedges the on/off schemes shut — one lost RESUME/QRESUME is a permanent")
	fmt.Fprintln(w, " pause for PFC and BFC alike — while both GFC variants keep every flow progressing,")
	fmt.Fprintln(w, " lossless, under every scenario; DCFIT convicts only where pause edges close a cycle)")
	return nil
}

// caseStudy runs one named case-study sub-run.
func (o *Options) caseStudy(name string, spec scenario.Spec) (*CaseStudyResult, error) {
	ro := o.sub()
	res, err := RunCaseStudy(spec, ro)
	if err != nil {
		return nil, err
	}
	o.Sink.Record(name+string(spec.Scheme.FC), ro.Metrics, res.End)
	return res, nil
}

func caseStudySection(pause, gentle FC) func(io.Writer, *Options) error {
	return func(w io.Writer, o *Options) error {
		fmt.Fprintln(w, "Figures 12/13: k=4 fat-tree with failed links, CBD C1→A3→C2→A7→C1")
		fmt.Fprintln(w, "\n(a) deadlock formation (with cross-flow squeeze):")
		for _, fc := range []FC{pause, gentle} {
			res, err := o.caseStudy("casestudy-formation-", scenario.CaseStudy(fc, true, false))
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "  %-12s %-22s drops=%d\n", fc, verdict(res.Result, false), res.Drops)
		}
		fmt.Fprintln(w, "\n(b) steady state (the paper's four flows):")
		for _, fc := range []FC{pause, gentle} {
			res, err := o.caseStudy("casestudy-steady-", scenario.CaseStudy(fc, false, false))
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "  %-12s per-flow rates:", fc)
			for _, r := range res.FlowRates {
				fmt.Fprintf(w, " %v", r)
			}
			fmt.Fprintf(w, "  (paper: 5G each under GFC)\n")
		}
		return nil
	}
}

func victimSection(w io.Writer, o *Options) error {
	fmt.Fprintln(w, "Figure 14: victim flow H12→H4 (shares switches with the CBD, avoids its channels)")
	for _, fc := range AllFCs() {
		res, err := o.caseStudy("victim-", scenario.CaseStudy(fc, true, true))
		if err != nil {
			return err
		}
		fabric, progress := "alive", "frozen"
		if res.Deadlocked {
			fabric = "DEADLOCK"
		}
		if res.VictimProgressed {
			progress = "progressing"
		}
		fmt.Fprintf(w, "  %-12s %-9s victim: %v delivered, %s\n",
			fc, fabric, res.VictimTotal, progress)
	}
	fmt.Fprintln(w, "(paper: the victim freezes once PFC/CBFC deadlock; under GFC it keeps moving)")
	return nil
}

func evolutionSection(w io.Writer, o *Options) error {
	fmt.Fprintln(w, "Figure 18: network throughput evolution on a deadlock-prone scenario")
	for _, fc := range []FC{PFC, GFCBuf} {
		ro := o.sub()
		res, err := RunEvolution(fc, ro)
		if err != nil {
			return err
		}
		o.Sink.Record(res.Name, ro.Metrics, res.End)
		fmt.Fprintf(w, "  %-12s %-22s final aggregate %-10v drops=%d\n",
			fc, verdict(res.Result, false), res.FinalRate, res.Drops)
		if o.Series {
			for i, r := range res.Throughput.Rates() {
				fmt.Fprintf(w, "%.1f\t%.0f\n", (units.Time(i) * res.Throughput.Width).Millis(), float64(r))
			}
		}
	}
	return nil
}

func overheadSection(w io.Writer, o *Options) error {
	ro := o.sub()
	res, err := RunOverhead(scenario.Overhead(GFCBuf, 8, o.Seed), ro)
	if err != nil {
		return err
	}
	o.Sink.Record(res.Name, ro.Metrics, res.End)
	fmt.Fprintln(w, "Figure 19: buffer-based GFC feedback bandwidth per port (fraction of 10G)")
	fmt.Fprintf(w, "  mean %.4f%%  p99 %.4f%%  max %.4f%%\n",
		res.Mean*100, res.P99*100, res.Max*100)
	fmt.Fprintln(w, "  (paper: mean 0.21%, 99% of ports < 0.4%, max 0.49%)")
	return nil
}

func fig20Section(w io.Writer, o *Options) error {
	ro := o.sub()
	res, err := RunFig20(ro)
	if err != nil {
		return err
	}
	o.Sink.Record(res.Name, ro.Metrics, res.End)
	fmt.Fprintln(w, "Figure 20: GFC + DCQCN interaction (8:1 incast, ECN K=40KB)")
	fmt.Fprintf(w, "  max ingress queue %v (buffer 300KB), final DCQCN rate %v (fair share 1.25G), drops=%d\n",
		res.MaxQueue, res.FinalDCQCN, res.Drops)
	o.printSeries(w, "queue", res.Queue, 60)
	o.printSeries(w, "dcqcn-rate", res.DCQCNRate, 60)
	o.printSeries(w, "gfc-rate", res.GFCRate, 60)
	return nil
}

// sweepConfigs composes the configuration the sweep runs at each scale:
// DefaultSweep, then the CLI's settings, then the -table1-scale preset's
// overrides. One outside its range is a usage error, returned before any
// scale runs.
func (o *Options) sweepConfigs() ([]SweepConfig, error) {
	ks := o.Scales
	if o.Table1Scale == "ci" {
		ks = []int{4}
	}
	cfgs := make([]SweepConfig, len(ks))
	for i, k := range ks {
		cfg := DefaultSweep(k)
		cfg.Networks = o.Networks
		cfg.Repeats = o.Repeats
		cfg.Seed = o.Seed
		if o.Duration > 0 {
			cfg.Duration = o.Duration
		}
		cfg.Workers = o.Workers
		cfg.Budget = o.Budget
		cfg.Checkpoint = o.Checkpoint
		cfg.Analytic = o.Analytic
		cfg.Backend = o.Backend
		switch o.Table1Scale {
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
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrUsage, err)
		}
		cfgs[i] = cfg
	}
	return cfgs, nil
}

// sweepSection runs the §6.2.3 sweep once per scale — each generated network
// under every scheme — and prints the three results it feeds: Table 1,
// Figure 16 and Figure 17.
func sweepSection(w io.Writer, o *Options) error {
	cfgs, err := o.sweepConfigs()
	if err != nil {
		return err
	}
	// A scheme a fluid sweep cannot decide is left out before anything is
	// swept — its column prints "-" — instead of failing the run after the
	// schemes ahead of it have been computed.
	schemes := AllFCs()
	if o.Backend == "fluid" {
		schemes = nil
		for _, fc := range AllFCs() {
			if err := fluidSweepSupports(fc); err != nil {
				fmt.Fprintf(o.Stderr, "skipping %s: %v\n", fc, err)
				continue
			}
			schemes = append(schemes, fc)
		}
	}
	results := make(map[int]map[FC]*SweepResult)
	var ks []int
	quarantined := 0
	for _, cfg := range cfgs {
		k := cfg.K
		ks = append(ks, k)
		fmt.Fprintf(o.Stderr, "sweep k=%d %s...\n", k, schemeList(schemes))
		res, err := runSweeps(o.ctx(), schemes, cfg)
		if err != nil {
			// Interrupted: the checkpoint has every finished cell, so
			// skip the (partial) tables and report the resume path.
			if o.Checkpoint != "" && errors.Is(err, context.Canceled) {
				fmt.Fprintf(o.Stderr, "interrupted; rerun with -checkpoint %s to resume\n", o.Checkpoint)
			}
			return err
		}
		// The cell is the unit of salvage and quarantine: every scheme's
		// result reports the same, so the first speaks for the scale.
		if sum := res[0].ResilienceSummary(); sum != "" {
			fmt.Fprintf(o.Stderr, "self-healing report (k=%d):\n%s", k, sum)
		}
		if len(res[0].Failures) > 0 {
			fmt.Fprintln(o.Stderr, res[0].FailureSummary())
			quarantined += len(res[0].Failures)
		}
		results[k] = make(map[FC]*SweepResult)
		for _, r := range res {
			results[k][r.FC] = r
		}
	}
	fmt.Fprintln(w, "Table 1: deadlock cases (paper: PFC=CBFC>0 and falling with scale; GFC=0)")
	fmt.Fprint(w, Table1Rows(results, ks).String())
	fmt.Fprintln(w, "Figure 16: average available bandwidth over deadlock-free runs")
	fmt.Fprint(w, Fig16Rows(results, ks).String())
	if o.Backend == "fluid" {
		fmt.Fprintln(w, "Figure 17: not shown; slowdown needs flow completion times, which a fluid cell does not have")
	} else {
		fmt.Fprintln(w, "Figure 17: average slowdown (normalised to the per-scale minimum)")
		fmt.Fprint(w, Fig17Rows(results, ks).String())
	}
	if quarantined > 0 {
		// The checkpoint holds successes only, so a resume recomputes the
		// quarantined cells; one that tripped a budget trips it again.
		if o.Checkpoint != "" {
			fmt.Fprintf(o.Stderr, "quarantined cells are not checkpointed (raise any -budget-* bound they tripped); rerun with -checkpoint %s to recompute them\n", o.Checkpoint)
		}
		return fmt.Errorf("%w: %d sweep cells quarantined", ErrGovernor, quarantined)
	}
	return nil
}
