package main

import (
	"context"
	"strings"
	"testing"
	"time"

	"github.com/gfcsim/gfc/internal/experiments"
	"github.com/gfcsim/gfc/internal/scenario"
)

// TestUnknownScenarioListsNames pins the -scenario error UX: a typo'd name
// must come back with the full registry so the user can pick without a
// second -list invocation.
func TestUnknownScenarioListsNames(t *testing.T) {
	old := *scenarioName
	defer func() { *scenarioName = old }()
	*scenarioName = "definitely-not-registered"
	err := runScenario()
	if err == nil {
		t.Fatal("unknown scenario accepted")
	}
	for _, name := range scenario.Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error does not list %q: %v", name, err)
		}
	}
}

func TestSplitComma(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"4,8", []string{"4", "8"}},
		{"4", []string{"4"}},
		{"", nil},
		{"4,8,16", []string{"4", "8", "16"}},
		{"4,", []string{"4"}},
	}
	for _, c := range cases {
		got := splitComma(c.in)
		if len(got) != len(c.want) {
			t.Errorf("splitComma(%q) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("splitComma(%q) = %v, want %v", c.in, got, c.want)
			}
		}
	}
}

// TestScalesRejectsGarbage pins that -scales never silently drops an entry:
// a token that is not an integer (or a list naming no arity at all) is a
// usage error naming the bad token, before any sweep runs.
func TestScalesRejectsGarbage(t *testing.T) {
	for _, ok := range []struct {
		in   string
		want []int
	}{
		{"4,8", []int{4, 8}},
		{"4, 8,", []int{4, 8}},
		{"16", []int{16}},
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
		"":     "no fat-tree arity",
	} {
		old := *scales
		*scales = in
		err := runSweep("table1")
		*scales = old
		if err == nil || exitCode(err) != 2 || !strings.Contains(err.Error(), token) {
			t.Errorf("-scales %q: err = %v (exit %d), want a usage error naming %s",
				in, err, exitCode(err), token)
		}
	}
}

// TestEnumFlagsAreUsageErrors pins that a bad -backend, -table1-scale,
// -duration or -workers — and, for -exp faults, a -faults value that is not a
// preset — is refused up front as a usage error (exit 2) naming the value,
// instead of surfacing after the first sweep has started printing.
func TestEnumFlagsAreUsageErrors(t *testing.T) {
	if err := validateFlags(); err != nil {
		t.Fatalf("default flags rejected: %v", err)
	}
	for _, tc := range []struct {
		set  func()
		want string
	}{
		{func() { *backendName = "bogus" }, `-backend "bogus"`},
		{func() { *table1Scale = "huge" }, `-table1-scale "huge"`},
		{func() { *duration = -5 * time.Millisecond }, "-duration -5ms"},
		{func() { *workers = -3 }, "-workers -3"},
		{func() { *expName, *faultSpec = "faults", "nope" }, `unknown preset "nope"`},
	} {
		oldBackend, oldScale, oldDuration := *backendName, *table1Scale, *duration
		oldWorkers, oldExp, oldFaults := *workers, *expName, *faultSpec
		tc.set()
		err := validateFlags()
		*backendName, *table1Scale, *duration = oldBackend, oldScale, oldDuration
		*workers, *expName, *faultSpec = oldWorkers, oldExp, oldFaults
		if err == nil || exitCode(err) != 2 || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("err = %v (exit %d), want a usage error naming %s", err, exitCode(err), tc.want)
		}
	}
}

// TestFaultPresetVettedOnlyForTheMatrix pins the scope of the -faults preset
// check: fig9/fig10 also take a spec file there, and -workers 0 keeps meaning
// GOMAXPROCS, so neither may trip validateFlags.
func TestFaultPresetVettedOnlyForTheMatrix(t *testing.T) {
	oldWorkers, oldExp, oldFaults := *workers, *expName, *faultSpec
	defer func() { *workers, *expName, *faultSpec = oldWorkers, oldExp, oldFaults }()
	*workers, *expName, *faultSpec = 0, "fig9", "my-faults.json"
	if err := validateFlags(); err != nil {
		t.Errorf("-exp fig9 -faults my-faults.json -workers 0 rejected: %v", err)
	}
	*expName, *faultSpec = "faults", "resume-loss"
	if err := validateFlags(); err != nil {
		t.Errorf("-exp faults -faults resume-loss rejected: %v", err)
	}
}

// TestRingDriversHonourTheGovernor pins that fig9/fig10 and the fault matrix
// run under the governor like -scenario does: a blown -budget-events exits 3
// and a cancelled context exits 4. runRing used to drop both on the floor
// (exit 0) and the matrix reported a budget trip as a plain failure (exit 1).
func TestRingDriversHonourTheGovernor(t *testing.T) {
	oldCtx, oldEvents, oldDuration, oldWorkers := ctx, *budgetEvents, *duration, *workers
	defer func() { ctx, *budgetEvents, *duration, *workers = oldCtx, oldEvents, oldDuration, oldWorkers }()
	*duration, *workers = 5*time.Millisecond, 2
	drivers := []struct {
		name string
		run  func() error
	}{
		{"fig9", func() error { return runRing(experiments.PFC, experiments.GFCBuf) }},
		{"faults", runFaultMatrix},
	}

	ctx, *budgetEvents = context.Background(), 5000
	for _, d := range drivers {
		if err := d.run(); exitCode(err) != 3 {
			t.Errorf("-exp %s -budget-events 5000: err = %v (exit %d), want exit 3", d.name, err, exitCode(err))
		}
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	ctx, *budgetEvents = cancelled, 0
	for _, d := range drivers {
		if err := d.run(); exitCode(err) != 4 {
			t.Errorf("-exp %s interrupted: err = %v (exit %d), want exit 4", d.name, err, exitCode(err))
		}
	}
}

// TestScenarioWallBudgetExits3 pins that -budget-wall stops a -scenario run
// with the governor's exit code under either backend; the fluid runner used
// to ignore the budget and exit 0.
func TestScenarioWallBudgetExits3(t *testing.T) {
	oldName, oldBackend, oldWall := *scenarioName, *backendName, *budgetWall
	defer func() { *scenarioName, *backendName, *budgetWall = oldName, oldBackend, oldWall }()
	ctx = context.Background()
	*scenarioName, *budgetWall = "ring-steady-gfcbuf", time.Nanosecond
	for _, backend := range []string{"packet", "fluid"} {
		*backendName = backend
		if err := runScenario(); exitCode(err) != 3 {
			t.Errorf("-backend %s -budget-wall 1ns: err = %v (exit %d), want exit 3", backend, err, exitCode(err))
		}
	}
}
