package experiments

import (
	"bytes"
	"context"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/gfcsim/gfc/internal/netsim"
	"github.com/gfcsim/gfc/internal/scenario"
	"github.com/gfcsim/gfc/internal/units"
)

// bothDetectors is the detector overlay of the registry's DCFIT and BFC
// formation rings, the one the fault matrix lays on its cells.
func bothDetectors(s scenario.Spec) scenario.Spec {
	s.Run.Detector = "both"
	return s
}

// TestRegistryEntriesAreDriverSpecs pins "one declaration per setup": each
// figure entry of the scenario registry deep-equals the spec its -exp driver
// builds at the same scheme, scale and horizon, once the driver's own
// overlay (the analytic self-check) and the registry's name and description
// are set aside — and no driver spells a Spec literal of its own, so the two
// cannot part again.
func TestRegistryEntriesAreDriverSpecs(t *testing.T) {
	// The registered sweep cell differs from a sweep repeat in the two
	// fields builtin.go documents: it declares its failure scenario and
	// stops at the first detection.
	cell := sweepSpec(PFC, DefaultSweep(4), nil, 35)
	cell.Topology.FailRandom = &scenario.FailRandomSpec{Prob: DefaultSweep(4).FailureProb, Seed: 35}
	cell.Run.StopOnDeadlock = true
	for name, driver := range map[string]scenario.Spec{
		"fig5-pfc":                 scenario.Fig5(PFC),
		"fig5-gfcconceptual":       scenario.Fig5(GFCConceptual),
		"ring-steady-gfcbuf":       scenario.Ring(GFCBuf, 1),
		"ring-formation-pfc":       scenario.Ring(PFC, 2),
		"ring-formation-pfc-dcfit": bothDetectors(scenario.Ring(PFC, 2)),
		"ring-formation-bfc":       bothDetectors(scenario.Ring(BFC, 2)),
		"casestudy-pfc":            scenario.CaseStudy(PFC, true, false),
		"casestudy-gfcbuf":         scenario.CaseStudy(GFCBuf, true, false),
		"evolution-pfc":            scenario.Evolution(PFC),
		"overhead-gfcbuf":          scenario.Overhead(GFCBuf, 8, 1), // overheadSection's k, the CLI's -seed
		"incast-gfcbuf":            scenario.Incast(GFCBuf),
		"sweep-cell-pfc":           cell,
	} {
		want, ok := scenario.Get(name)
		if !ok {
			t.Errorf("%s is not registered", name)
			continue
		}
		driver.Name, driver.Description = want.Name, want.Description
		if !reflect.DeepEqual(driver, want) {
			t.Errorf("%s: the driver builds\n  %+v\nthe registry holds\n  %+v", name, driver, want)
		}
	}

	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			if sel, ok := lit.Type.(*ast.SelectorExpr); ok && sel.Sel.Name == "Spec" {
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "scenario" {
					t.Errorf("%s: a scenario.Spec literal — declare the setup in internal/scenario/builtin.go and call it",
						fset.Position(lit.Pos()))
				}
			}
			return true
		})
	}
}

// shortOptions are CLI options that keep every section inside a test budget:
// a 2 ms horizon and a 60-topology k=4 sweep (3 CBD-prone cells at seed 1).
func shortOptions() *Options {
	return &Options{
		RunOptions: RunOptions{Duration: 2 * units.Millisecond},
		Seed:       1,
		Workers:    2,
		Stderr:     io.Discard,
		Networks:   60,
		Repeats:    1,
		Scales:     []int{4},
	}
}

// TestSectionsNarrate renders every driver's section at a short horizon and
// checks the narrative: the headline naming the figure, one row per scheme
// the section races, and the series a -series run appends.
func TestSectionsNarrate(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every driver once")
	}
	for name, want := range map[string][]string{
		"fig5":   {"Figure 5:", "PFC ", "GFC-conceptual ", "# PFC queue (bytes)", "# GFC-conceptual rate (bps)"},
		"fig9":   {"Figures 9/10:", "(a) deadlock formation", "(b) steady state", "PFC ", "GFC-buffer ", "# GFC-buffer queue"},
		"fig10":  {"Figures 9/10:", "CBFC ", "GFC-time ", "drops=0"},
		"fig12":  {"Figures 12/13:", "(a) deadlock formation", "per-flow rates:", "PFC ", "GFC-buffer "},
		"fig13":  {"Figures 12/13:", "CBFC ", "GFC-time "},
		"fig14":  {"Figure 14:", "PFC ", "GFC-buffer ", "CBFC ", "GFC-time ", "victim:"},
		"fig15":  {"Flow size", "10KB"},
		"table1": {"Table 1:", "k=4    3 ", "Figure 16:", "Mean BW/host", "k=4    CBFC ", "Figure 17:", "Mean slowdown", "1.000"},
		"fig18":  {"Figure 18:", "PFC ", "GFC-buffer ", "final aggregate"},
		"fig19":  {"Figure 19:", "mean ", "p99 ", "max "},
		"fig20":  {"Figure 20:", "max ingress queue", "# dcqcn-rate", "# gfc-rate"},
		"faults": {"Fault matrix:", "resume-loss", "BFC ", "Steady rate"},
	} {
		d, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		o := shortOptions()
		o.Series = true
		var out, stderr bytes.Buffer
		o.Stderr = &stderr
		if err := d.Run(&out, o); err != nil {
			t.Errorf("-exp %s: %v", name, err)
			continue
		}
		for _, s := range want {
			if !strings.Contains(out.String(), s) {
				t.Errorf("-exp %s: output lacks %q:\n%s", name, s, out.String())
			}
		}
		if name != "table1" {
			continue
		}
		// One sweep feeds all three tables: each scale is swept once, every
		// network under every scheme.
		if got, want := stderr.String(), "sweep k=4 PFC,GFC-buffer,CBFC,GFC-time...\n"; got != want {
			t.Errorf("-exp table1 progress %q, want one line per scale, %q", got, want)
		}
	}
	if len(Drivers) != 12 {
		t.Errorf("the dispatch table has %d drivers; add the new one's narrative above", len(Drivers))
	}
	// -backend fluid: a sweep leaves out the schemes the solver cannot decide
	// — CBFC, which it cannot represent, and PFC, whose deadlocks on a cyclic
	// CBD are packet-granular — says so once each, prints "-" in their Table 1
	// columns and no Figure 16 row for them. It used to print "PFC 0" where
	// the packet sweep counts deadlocks. Figure 17 is flow completion times,
	// which a fluid cell does not have: one line says so, in place of the
	// table.
	table1, err := Lookup("table1")
	if err != nil {
		t.Fatal(err)
	}
	o := shortOptions()
	o.Backend = "fluid"
	var out, stderr bytes.Buffer
	o.Stderr = &stderr
	if err := table1.Run(&out, o); err != nil {
		t.Fatalf("-exp table1 -backend fluid: %v", err)
	}
	_, counts, _ := strings.Cut(out.String(), "k=4") // CBD-prone, then PFC, GFC-buffer, CBFC, GFC-time
	if row := strings.Fields(counts); len(row) < 5 || row[1] != "-" || row[2] == "-" || row[3] != "-" || row[4] == "-" {
		t.Errorf("-exp table1 -backend fluid: want a count under GFC-buffer and GFC-time and \"-\" under PFC and CBFC:\n%s", out.String())
	}
	for _, fc := range []FC{PFC, CBFC} {
		if n := strings.Count(stderr.String(), "skipping "+string(fc)+": "); n != 1 {
			t.Errorf("-exp table1 -backend fluid: %d stderr lines skip %s, want 1:\n%s", n, fc, stderr.String())
		}
	}
	_, fig16, _ := strings.Cut(out.String(), "Figure 16:")
	fig16, fig17, _ := strings.Cut(fig16, "Figure 17:")
	for _, fc := range AllFCs() {
		gentle := fc == GFCBuf || fc == GFCTime
		if got := strings.Contains(fig16, "k=4    "+string(fc)+" "); got != gentle {
			t.Errorf("-exp table1 -backend fluid: Figure 16 row for %s: %v, want %v:\n%s", fc, got, gentle, out.String())
		}
	}
	if !strings.Contains(fig17, "flow completion times") || strings.Contains(out.String(), "Mean slowdown") {
		t.Errorf("-exp table1 -backend fluid: want one Figure 17 line naming flow completion times, no slowdown table:\n%s", out.String())
	}
	if _, err := Lookup("fig99"); err == nil || !strings.Contains(err.Error(), "fig5, fig9, fig10") {
		t.Errorf("Lookup(fig99) = %v, want a usage error listing the table", err)
	}
}

// TestEveryDriverIsGoverned ranges over the dispatch table: every packet
// driver ends in Sim.RunBounded, so a 5 000-event budget ends it in a
// *netsim.RunError (exit 3 through the CLI's governed) and a cancelled
// context in context.Canceled (exit 4). Before the drivers shared one run
// path, seven of the ten dropped both on the floor and exited 0.
func TestEveryDriverIsGoverned(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	packetDrivers := 0
	for _, d := range Drivers {
		if d.Name == "fig15" || slices.Contains(d.Flags, "networks") {
			continue // no simulation; sweeps quarantine per cell (selfheal_test.go)
		}
		packetDrivers++
		o := shortOptions()
		o.Budget.MaxEvents = 5000
		var re *netsim.RunError
		if err := d.Run(io.Discard, o); !errors.As(err, &re) || re.Reason != netsim.StopEventBudget {
			t.Errorf("-exp %s under a 5000-event budget: err = %v, want a *netsim.RunError for the event budget", d.Name, err)
		}
		o = shortOptions()
		o.Ctx = cancelled
		if err := d.Run(io.Discard, o); !errors.Is(err, context.Canceled) {
			t.Errorf("-exp %s with a cancelled context: err = %v, want context.Canceled", d.Name, err)
		}
	}
	if packetDrivers != 10 {
		t.Errorf("%d packet drivers, want fig5 … fig20 and faults: 10", packetDrivers)
	}
}

// TestMetricsSinkRecordsEveryPacketDriver pins that -metrics-out reaches
// every figure that lists it, and that exactly the single-run sections list
// it: each records one report per run it makes (fig5 used to accept the
// flag, write nothing and exit 0).
func TestMetricsSinkRecordsEveryPacketDriver(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every packet driver once")
	}
	want := map[string]int{
		"fig5": 2, "fig9": 4, "fig10": 4, "fig12": 4, "fig13": 4, "fig14": 4,
		"fig18": 2, "fig19": 1, "fig20": 1,
	}
	for _, d := range Drivers {
		if _, ok := want[d.Name]; ok != slices.Contains(d.Flags, "metrics-out") {
			t.Errorf("-exp %s lists -metrics-out: %v, want %v", d.Name, !ok, ok)
		}
	}
	for name, runs := range want {
		d, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		o := shortOptions()
		path := filepath.Join(t.TempDir(), name+".json")
		o.Sink = NewMetricsSink(path)
		if err := d.Run(io.Discard, o); err != nil {
			t.Errorf("-exp %s: %v", name, err)
			continue
		}
		if got := len(o.Sink.runs); got != runs {
			t.Errorf("-exp %s recorded %d metrics reports, want %d", name, got, runs)
		}
		if err := o.Sink.Flush(); err != nil {
			t.Errorf("-exp %s: flushing: %v", name, err)
		}
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("-exp %s -metrics-out wrote nothing (%v)", name, err)
		}
	}
}
