package main

import (
	"context"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/gfcsim/gfc/internal/experiments"
	"github.com/gfcsim/gfc/internal/faults"
	"github.com/gfcsim/gfc/internal/scenario"
)

// run drives d the way main does — options from the flags, the error mapped
// through governed — and returns the exit code.
func run(t *testing.T, ctx context.Context, d *experiments.Driver) (int, error) {
	t.Helper()
	return runTo(t, ctx, d, io.Discard)
}

// runTo is run with d's stdout written to w.
func runTo(t *testing.T, ctx context.Context, d *experiments.Driver, w io.Writer) (int, error) {
	t.Helper()
	o, err := options(ctx)
	if err != nil {
		t.Fatal(err)
	}
	o.Stderr = io.Discard
	err = governed(d.Run(w, o))
	return exitCode(err), err
}

// TestUnknownScenarioListsNames pins the -scenario error UX: a typo'd name
// must come back with the full registry so the user can pick without a
// second -list invocation.
func TestUnknownScenarioListsNames(t *testing.T) {
	old := *scenarioName
	defer func() { *scenarioName = old }()
	*scenarioName = "definitely-not-registered"
	_, err := run(t, context.Background(), &scenarioDriver)
	if err == nil {
		t.Fatal("unknown scenario accepted")
	}
	for _, name := range scenario.Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error does not list %q: %v", name, err)
		}
	}
}

// TestScalesRejectsGarbage pins that -scales never silently drops an entry:
// a token that is not an integer (or a list naming no arity at all) is a
// usage error naming the bad token, before any sweep runs. A trailing comma
// is the one empty entry accepted.
func TestScalesRejectsGarbage(t *testing.T) {
	for _, ok := range []struct {
		in   string
		want []int
	}{
		{"4,8", []int{4, 8}},
		{"4, 8,", []int{4, 8}},
		{"4,", []int{4}},
		{"16", []int{16}},
		{"4,8,16", []int{4, 8, 16}},
	} {
		got, err := parseScales(ok.in)
		if err != nil || len(got) != len(ok.want) {
			t.Errorf("parseScales(%q) = %v, %v; want %v", ok.in, got, err, ok.want)
			continue
		}
		for i := range got {
			if got[i] != ok.want[i] {
				t.Errorf("parseScales(%q) = %v, want %v", ok.in, got, ok.want)
			}
		}
	}
	for in, token := range map[string]string{
		"4,x8": `"x8"`,
		"abc":  `"abc"`,
		"4,,8": `""`,
		"4.5":  `"4.5"`,
		"4,4":  "arity 4 twice",
		"":     "no fat-tree arity",
	} {
		old := *scales
		*scales = in
		_, err := options(context.Background())
		*scales = old
		if err == nil || exitCode(err) != 2 || !strings.Contains(err.Error(), token) {
			t.Errorf("-scales %q: err = %v (exit %d), want a usage error naming %s",
				in, err, exitCode(err), token)
		}
	}
}

// TestEnumFlagsAreUsageErrors pins that a bad -backend, -table1-scale,
// -duration or -workers, an unknown experiment, and an explicitly set flag the
// selected driver does not read are refused up front as usage errors (exit 2)
// naming the value and, for a flag, the drivers that honour it — instead of
// surfacing after the first sweep has started printing, or (the flags) being
// dropped in silence: -exp fig12 -faults nosuch, -exp fig18 -faults flap and
// -exp fig18 -backend fluid -checkpoint x.ck all used to exit 0. -backend auto,
// the retired adaptive mode, is an unknown value naming the two engines. No
// driver retries a cell, so -retries and -retry-backoff are not flags at all
// (flag.Parse exits 2 on them). Only the drivers that record runs into the metrics
// sink read -metrics-out: -exp faults, table1 and fig15 used to accept it,
// write nothing and exit 0, skipping the invariant gate the flag promises;
// refused here, main exits before the sink exists, so no file is created. A
// -table1-scale preset sets -networks, -repeats and -analytic (ci also
// -scales), so setting one of them beside it is refused naming both: -exp
// table1 -table1-scale ci -networks 20 -scales 8 used to run k=4 × 200
// networks and exit 0. -seed and -workers are read only by the drivers that
// seed or pool something: -exp fig5 -seed 9, -exp fig14 -workers 3 and
// -scenario X -seed 9 used to run the default and exit 0. fig9 and fig10 seed
// only their -faults injector, so -seed without -faults is refused there too:
// -exp fig9 -seed 9 used to print the seed-1 bytes and exit 0. -series and
// -chart belong to the drivers that print a time series, and the run flags
// (-duration, -budget-*, -stall-events) to every driver that simulates:
// -exp fig12 -series printed what it prints without the flag, and -exp fig15
// -duration 5ms -budget-events 10 exited 0 though fig15 simulates nothing.
func TestEnumFlagsAreUsageErrors(t *testing.T) {
	if _, err := validateFlags(nil); err != nil {
		t.Fatalf("default flags rejected: %v", err)
	}
	for _, name := range []string{"retries", "retry-backoff"} {
		if flag.Lookup(name) != nil {
			t.Errorf("-%s is a flag; no driver retries a cell", name)
		}
	}
	for _, tc := range []struct {
		exp, scenario string
		set           []string
	}{
		{"fig5", "", []string{"exp", "series", "chart", "duration", "budget-wall"}},
		{"fig18", "", []string{"exp", "series", "stall-events"}},
		{"fig20", "", []string{"exp", "chart", "budget-heap"}},
		{"faults", "", []string{"exp", "duration", "budget-events", "budget-wall"}},
		{"", "ring-steady-gfcbuf", []string{"scenario", "duration", "budget-wall", "stall-events"}},
	} {
		oldExp, oldScenario := *expName, *scenarioName
		*expName, *scenarioName = tc.exp, tc.scenario
		_, err := validateFlags(tc.set)
		*expName, *scenarioName = oldExp, oldScenario
		if err != nil {
			t.Errorf("-exp %q -scenario %q with %v rejected: %v", tc.exp, tc.scenario, tc.set, err)
		}
	}
	*expName, *table1Scale = "table1", "full"
	_, err := validateFlags([]string{"exp", "table1-scale", "scales"})
	*expName, *table1Scale = "", ""
	if err != nil {
		t.Errorf("-exp table1 -table1-scale full -scales 4,6,8 rejected: %v", err)
	}
	for _, tc := range []struct {
		set  func() []string
		want string
	}{
		{func() []string { *backendName = "bogus"; return nil }, `-backend "bogus"`},
		{func() []string { *backendName = "auto"; return nil }, `unknown -backend "auto" (want packet or fluid)`},
		{func() []string { *table1Scale = "huge"; return nil }, `-table1-scale "huge"`},
		{func() []string { *duration = -5 * time.Millisecond; return nil }, "-duration -5ms"},
		{func() []string { *workers = -3; return nil }, "-workers -3"},
		{func() []string { *expName = "fig21"; return nil }, `unknown experiment "fig21" (want one of fig5, fig9,`},
		{func() []string { *expName, *scenarioName = "fig5", "incast-gfcbuf"; return nil }, "not both"},
		{func() []string { *expName = "fig12"; return []string{"exp", "faults"} },
			"-faults is not read by fig12 (honoured by: fig9, fig10, faults)"},
		{func() []string { *expName = "fig18"; return []string{"backend", "checkpoint"} },
			"-backend is not read by fig18 (honoured by: table1, -scenario)"},
		{func() []string { *expName = "fig9"; return []string{"faults", "checkpoint"} },
			"-checkpoint is not read by fig9 (honoured by: table1)"},
		{func() []string { *expName = "faults"; return []string{"seed", "networks"} },
			"-networks is not read by faults"},
		{func() []string { *expName = "fig12"; return []string{"exp", "series"} },
			"-series is not read by fig12 (honoured by: fig5, fig9, fig10, fig18, fig20)"},
		{func() []string { *expName = "fig18"; return []string{"exp", "series", "chart"} },
			"-chart is not read by fig18 (honoured by: fig5, fig9, fig10, fig20)"},
		{func() []string { *expName = "faults"; return []string{"exp", "chart"} },
			"-chart is not read by faults"},
		{func() []string { *scenarioName = "ring-steady-gfcbuf"; return []string{"scenario", "series"} },
			"-series is not read by -scenario"},
		{func() []string { *expName = "fig15"; return []string{"exp", "duration", "budget-events"} },
			"-duration is not read by fig15 (honoured by: fig5, fig9, fig10, fig12, fig13, fig14, table1, fig18, fig19, fig20, faults, -scenario)"},
		{func() []string { *expName = "fig15"; return []string{"exp", "budget-events"} },
			"-budget-events is not read by fig15"},
		{func() []string { *expName = "fig15"; return []string{"exp", "stall-events"} },
			"-stall-events is not read by fig15"},
		{func() []string { *scenarioName = "incast-gfcbuf"; return []string{"backend", "faults"} },
			"-faults is not read by -scenario"},
		{func() []string { *expName = "faults"; return []string{"exp", "metrics-out"} },
			"-metrics-out is not read by faults (honoured by: fig5, fig9, fig10, fig12, fig13, fig14, fig18, fig19, fig20, -scenario)"},
		{func() []string { *expName = "table1"; return []string{"exp", "metrics-out"} },
			"-metrics-out is not read by table1"},
		{func() []string { *expName = "fig15"; return []string{"exp", "metrics-out"} },
			"-metrics-out is not read by fig15"},
		{func() []string { *expName = "fig5"; return []string{"exp", "seed", "duration"} },
			"-seed is not read by fig5 (honoured by: fig9, fig10, table1, fig19, faults)"},
		{func() []string { *expName = "fig14"; return []string{"exp", "workers", "duration"} },
			"-workers is not read by fig14 (honoured by: table1, faults)"},
		{func() []string { *scenarioName = "twotoone-pfc"; return []string{"scenario", "seed", "duration"} },
			"-seed is not read by -scenario"},
		{func() []string { *expName = "fig9"; return []string{"exp", "seed"} },
			"-seed seeds the -faults injector of fig9; give -faults too"},
		{func() []string { *expName = "fig10"; return []string{"exp", "seed", "duration"} },
			"-seed seeds the -faults injector of fig10; give -faults too"},
		{func() []string { *expName, *table1Scale = "table1", "ci"; return []string{"networks", "scales"} },
			"-table1-scale ci sets -networks itself"},
		{func() []string { *expName, *table1Scale = "table1", "ci"; return []string{"table1-scale", "scales"} },
			"-table1-scale ci sets -scales itself"},
		{func() []string { *expName, *table1Scale = "table1", "full"; return []string{"table1-scale", "repeats"} },
			"-table1-scale full sets -repeats itself"},
		{func() []string { *expName, *table1Scale = "table1", "full"; return []string{"scales", "analytic"} },
			"-table1-scale full sets -analytic itself"},
	} {
		oldBackend, oldScale, oldDuration := *backendName, *table1Scale, *duration
		oldWorkers, oldExp, oldScenario := *workers, *expName, *scenarioName
		_, err := validateFlags(tc.set())
		*backendName, *table1Scale, *duration = oldBackend, oldScale, oldDuration
		*workers, *expName, *scenarioName = oldWorkers, oldExp, oldScenario
		if err == nil || exitCode(err) != 2 || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("err = %v (exit %d), want a usage error naming %s", err, exitCode(err), tc.want)
		}
	}

	// A sweep count or arity outside its range is refused as the
	// configuration each scale would run, after -table1-scale's overrides,
	// before any sweep prints: -scales 5, -networks 0 and -repeats -1 used to
	// print "sweep k=… PFC..." and then exit 1. A context cancelled up front
	// stops an accepted sweep at its first cell (exit 4).
	table1, err := experiments.Lookup("table1")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		set  func()
		want string // what the usage error names; "" means accepted
	}{
		{func() { *scales = "5" }, "K = 5"},
		{func() { *networks = 0 }, "Networks = 0"},
		{func() { *repeats = -1 }, "Repeats = -1"},
		{func() { *table1Scale, *networks = "ci", 0 }, ""}, // the preset overrides the count
	} {
		oldScales, oldNetworks, oldRepeats, oldScale := *scales, *networks, *repeats, *table1Scale
		tc.set()
		o, err := options(ctx)
		var stdout, stderr strings.Builder
		if err == nil {
			o.Stderr = &stderr
			err = governed(table1.Run(&stdout, o))
		}
		*scales, *networks, *repeats, *table1Scale = oldScales, oldNetworks, oldRepeats, oldScale
		switch {
		case tc.want == "" && exitCode(err) != 4:
			t.Errorf("-table1-scale ci -networks 0: err = %v (exit %d), want the sweep to start", err, exitCode(err))
		case tc.want != "" && (exitCode(err) != 2 || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("err = %v (exit %d), want a usage error naming %s", err, exitCode(err), tc.want)
		case tc.want != "" && (stdout.Len() > 0 || strings.Contains(stderr.String(), "sweep k=")):
			t.Errorf("%s: refused after printing: stdout %q, stderr %q", tc.want, stdout.String(), stderr.String())
		}
	}

	if flag.Lookup("degrade") != nil {
		t.Error("-degrade is still a flag; the degraded-fidelity fallback is gone")
	}

	// Every flag a driver lists exists and is accepted for it. No flag is
	// accepted everywhere: -duration, -budget-* and -stall-events (like
	// -metrics-out, -seed and -workers before them) are listed by the
	// drivers that read them, so fig15 refuses them. -faults is set to a
	// preset, so fig9 and fig10 take -seed with it.
	oldFaults := *faultSpec
	*faultSpec = "flap"
	defer func() { *faultSpec = oldFaults }()
	for _, d := range append(experiments.Drivers, scenarioDriver) {
		for _, name := range d.Flags {
			if flag.Lookup(name) == nil {
				t.Errorf("%s lists -%s, which is not a flag", d.Name, name)
			}
		}
		old := *expName
		*expName = strings.TrimPrefix(d.Name, "-scenario")
		// Every driver but fig15 simulates, so each other reads every run flag.
		for _, name := range experiments.RunFlags {
			if listed, simulates := slices.Contains(d.Flags, name), d.Name != "fig15"; listed != simulates {
				t.Errorf("%s: lists -%s = %v, simulates = %v", d.Name, name, listed, simulates)
			}
		}
		set := append([]string{"exp"}, d.Flags...)
		if got, err := validateFlags(set); err != nil || got.Name != d.Name {
			t.Errorf("%s with its own flags: driver %v, err %v", d.Name, got, err)
		}
		*expName = old
	}
}

// TestFaultsVettedBeforeAnythingPrints pins the -faults checks: the matrix
// compiles its columns from presets by name and refuses anything else; fig9
// and fig10 also take a spec file, which they check against both rings they
// run. An unknown preset is a usage error (exit 2), a file that fails to load
// or to compile on the ring exits 1, and either way nothing reaches stdout.
// -workers 0 keeps meaning GOMAXPROCS.
func TestFaultsVettedBeforeAnythingPrints(t *testing.T) {
	oldWorkers, oldExp, oldFaults := *workers, *expName, *faultSpec
	defer func() { *workers, *expName, *faultSpec = oldWorkers, oldExp, oldFaults }()
	*workers, *expName, *faultSpec = 0, "faults", "flap"
	if _, err := validateFlags([]string{"exp", "faults", "workers"}); err != nil {
		t.Errorf("-exp faults -faults flap -workers 0 rejected: %v", err)
	}
	dir := t.TempDir()
	noSuchLink := filepath.Join(dir, "no-such-link.json")
	if err := os.WriteFile(noSuchLink, []byte(`{"links":[{"link":"S1-S9","flaps":[{"down_at_ns":1000}]}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		exp, faults string
		code        int
		want        string
	}{
		{"faults", "nope", 2, `unknown preset "nope"`},
		{"fig9", "nope", 2, `unknown preset "nope"`},
		{"fig10", "nope", 2, `unknown preset "nope"`},
		{"fig9", noSuchLink, 1, "S1-S9"},
		{"fig10", filepath.Join(dir, "missing.json"), 1, "missing.json"},
	} {
		*expName, *faultSpec = tc.exp, tc.faults
		d, err := validateFlags([]string{"exp", "faults"})
		if err != nil {
			t.Fatalf("-exp %s -faults %s rejected: %v", tc.exp, tc.faults, err)
		}
		var stdout strings.Builder
		code, err := runTo(t, context.Background(), d, &stdout)
		if code != tc.code || err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("-exp %s -faults %s: err = %v (exit %d), want exit %d naming %q", tc.exp, tc.faults, err, code, tc.code, tc.want)
		}
		if stdout.Len() > 0 {
			t.Errorf("-exp %s -faults %s printed before failing:\n%s", tc.exp, tc.faults, stdout.String())
		}
	}
}

// TestFaultsFileRunsLikeItsPreset holds the two ways -faults names a scenario
// to one run: each preset, written out as a spec file, prints exactly what
// the preset's name does.
func TestFaultsFileRunsLikeItsPreset(t *testing.T) {
	oldFaults, oldDuration := *faultSpec, *duration
	defer func() { *faultSpec, *duration = oldFaults, oldDuration }()
	*duration = 30 * time.Millisecond
	d, err := experiments.Lookup("fig9")
	if err != nil {
		t.Fatal(err)
	}
	stdout := func(value string) string {
		*faultSpec = value
		var w strings.Builder
		if _, err := runTo(t, context.Background(), d, &w); err != nil {
			t.Fatalf("-exp fig9 -faults %s: %v", value, err)
		}
		return w.String()
	}
	for _, name := range faults.PresetNames() {
		preset, err := faults.Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(preset)
		if err != nil {
			t.Fatal(err)
		}
		file := filepath.Join(t.TempDir(), name+".json")
		if err := os.WriteFile(file, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if byName, byFile := stdout(name), stdout(file); byName != byFile {
			t.Errorf("-faults %s prints\n%s\nits spec file prints\n%s", name, byName, byFile)
		}
	}
}

// TestRingDriversHonourTheGovernor pins the exit codes of a governed driver:
// a blown -budget-events exits 3 and a cancelled context exits 4, for a
// single-run driver (fig9) and for one whose cells run on the runner pool and
// come back wrapped (faults). That every driver of the table returns such an
// error is experiments.TestEveryDriverIsGoverned; this is the mapping.
func TestRingDriversHonourTheGovernor(t *testing.T) {
	oldEvents, oldDuration, oldWorkers := *budgetEvents, *duration, *workers
	defer func() { *budgetEvents, *duration, *workers = oldEvents, oldDuration, oldWorkers }()
	*duration, *workers = 5*time.Millisecond, 2
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range []string{"fig9", "faults"} {
		d, err := experiments.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		*budgetEvents = 5000
		if code, err := run(t, context.Background(), d); code != 3 {
			t.Errorf("-exp %s -budget-events 5000: err = %v (exit %d), want exit 3", name, err, code)
		}
		*budgetEvents = 0
		if code, err := run(t, cancelled, d); code != 4 {
			t.Errorf("-exp %s interrupted: err = %v (exit %d), want exit 4", name, err, code)
		}
	}
}

// TestQuarantinedSweepRecomputesOnResume pins the checkpointed sweep's one
// recovery path: a -budget-events trip quarantines cells (exit 3) and the
// stderr report ends with the hint to rerun with -checkpoint; a rerun under
// the same budget recomputes them and prints the same stderr, flight
// recorder included; a rerun without the budget exits 0 with a fresh run's
// stdout. An event-budget quarantine used to be checkpointed and replayed
// as a failure, with no flight recorder, whatever the budget.
func TestQuarantinedSweepRecomputesOnResume(t *testing.T) {
	table1, err := experiments.Lookup("table1")
	if err != nil {
		t.Fatal(err)
	}
	oldScales, oldNetworks, oldRepeats, oldDuration, oldWorkers, oldEvents, oldCheckpoint :=
		*scales, *networks, *repeats, *duration, *workers, *budgetEvents, *checkpoint
	defer func() {
		*scales, *networks, *repeats, *duration, *workers, *budgetEvents, *checkpoint =
			oldScales, oldNetworks, oldRepeats, oldDuration, oldWorkers, oldEvents, oldCheckpoint
	}()
	*scales, *networks, *repeats, *duration, *workers = "4", 40, 1, 5*time.Millisecond, 2
	sweep := func() (code int, stdout, stderr string) {
		o, err := options(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		var out, errOut strings.Builder
		o.Stderr = &errOut
		err = governed(table1.Run(&out, o))
		return exitCode(err), out.String(), errOut.String()
	}
	_, fresh, _ := sweep()

	*checkpoint = filepath.Join(t.TempDir(), "c.jsonl")
	*budgetEvents = 2000
	code, _, first := sweep()
	hint := "rerun with -checkpoint " + *checkpoint + " to recompute them\n"
	if code != 3 || !strings.Contains(first, "flight recorder:") || !strings.HasSuffix(first, hint) {
		t.Fatalf("budgeted sweep: exit %d, stderr\n%s\nwant exit 3, a flight recorder and the hint %q last", code, first, hint)
	}
	if code, _, again := sweep(); code != 3 || again != first {
		t.Errorf("same-budget rerun: exit %d, stderr\n%s\nwant exit 3 and the first run's stderr\n%s", code, again, first)
	}
	*budgetEvents = 0
	if code, resumed, errOut := sweep(); code != 0 || resumed != fresh {
		t.Errorf("unbudgeted rerun: exit %d, stdout\n%s\nwant exit 0 and a fresh run's\n%s\nstderr:\n%s", code, resumed, fresh, errOut)
	}
}

// TestListBackendsColumn walks the registry and holds -list's engine column
// to what the CLI does: a scenario is listed packet+fluid exactly when
// `-scenario X -backend fluid` builds it and runs it clean (exit 0). -list
// used to mark casestudy-pfc and ring-formation-pfc fluid, whose fluid runs
// then failed their net-occupancy invariant.
func TestListBackendsColumn(t *testing.T) {
	oldName, oldBackend := *scenarioName, *backendName
	defer func() { *scenarioName, *backendName = oldName, oldBackend }()
	*backendName = "fluid"
	for _, name := range scenario.Names() {
		s, _ := scenario.Get(name)
		*scenarioName = name
		code, err := run(t, context.Background(), &scenarioDriver)
		if col := backends(s); (col == "packet+fluid") != (code == 0) {
			t.Errorf("%s: -list says %s, -scenario %s -backend fluid exits %d (%v)", name, col, name, code, err)
		}
	}
}

// TestScenarioWallBudgetExits3 pins that -budget-wall stops a -scenario run
// with the governor's exit code under either backend; the fluid runner used
// to ignore the budget and exit 0.
func TestScenarioWallBudgetExits3(t *testing.T) {
	oldName, oldBackend, oldWall := *scenarioName, *backendName, *budgetWall
	defer func() { *scenarioName, *backendName, *budgetWall = oldName, oldBackend, oldWall }()
	*scenarioName, *budgetWall = "ring-steady-gfcbuf", time.Nanosecond
	for _, backend := range []string{"packet", "fluid"} {
		*backendName = backend
		if code, err := run(t, context.Background(), &scenarioDriver); code != 3 {
			t.Errorf("-backend %s -budget-wall 1ns: err = %v (exit %d), want exit 3", backend, err, code)
		}
	}
}

// TestScenarioDCFITOnlyVerdict pins that a run whose only detector is DCFIT
// reports DCFIT's verdict: the steady ring prints "no deadlock", never
// "deadlock detection off".
func TestScenarioDCFITOnlyVerdict(t *testing.T) {
	old := *scenarioName
	defer func() { *scenarioName = old }()
	*scenarioName = filepath.Join(t.TempDir(), "dcfit-ring.json")
	spec := `{"name": "dcfit-ring", "topology": {"builder": "ring", "n": 3},
		"workload": {"pattern": "ring-clockwise"}, "scheme": {"fc": "PFC", "preset": "testbed"},
		"run": {"duration_ns": 20000000, "detect_deadlock": true, "detector": "dcfit"}}`
	if err := os.WriteFile(*scenarioName, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	var w strings.Builder
	if _, err := runTo(t, context.Background(), &scenarioDriver, &w); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(w.String(), "ran to 20ms: no deadlock\n") {
		t.Errorf("DCFIT-only run on the steady ring printed\n%s", w.String())
	}
}
