package experiments

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"github.com/gfcsim/gfc/internal/cbd"
	"github.com/gfcsim/gfc/internal/routing"
	"github.com/gfcsim/gfc/internal/scenario"
	"github.com/gfcsim/gfc/internal/units"
)

func TestFCFactoryAndNames(t *testing.T) {
	_, fp := scenario.TestbedParams()
	for _, fc := range AllFCs() {
		if fp.Factory(fc) == nil {
			t.Errorf("no factory for %s", fc)
		}
	}
	if !GFCBuf.IsGFC() || !GFCTime.IsGFC() || PFC.IsGFC() || CBFC.IsGFC() {
		t.Error("IsGFC misclassifies")
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown FC did not panic")
		}
	}()
	fp.Factory(FC("bogus"))
}

// caseStudySim builds the case study with the paper's four flows only.
func caseStudySim(t *testing.T) *scenario.Sim {
	t.Helper()
	sim, err := RunOptions{}.build(scenario.CaseStudy(PFC, false, false), scenario.Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

func TestFatTreeScenarioHasCBD(t *testing.T) {
	sim := caseStudySim(t)
	g := cbd.NewGraph(sim.Topo)
	for _, f := range sim.Flows {
		g.AddPath(f.Path)
	}
	if !g.HasCycle() {
		t.Fatal("case-study flows do not form a CBD")
	}
	cyc := g.FindCycle()
	if len(cyc) != 4 {
		t.Fatalf("cycle length %d, want the 4 core-agg channels", len(cyc))
	}
	// The cycle must be exactly the documented one: C1→A3→C2→A7→C1.
	want := map[string]bool{"C1>A3": true, "A3>C2": true, "C2>A7": true, "A7>C1": true}
	name := func(c cbd.Channel) string { return sim.Topo.Node(c.From).Name + ">" + sim.Topo.Node(c.To).Name }
	for _, c := range cyc {
		if !want[name(c)] {
			t.Errorf("unexpected cycle member %s", name(c))
		}
	}
	// The Figure 14 victim shares switches with the cycle but rides none of
	// its channels.
	withVictim, err := RunOptions{}.build(scenario.CaseStudy(PFC, true, true), scenario.Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	victim := withVictim.Flows[len(withVictim.Flows)-1]
	for _, h := range victim.Path {
		hop := sim.Topo.Node(h.Node).Name + ">" + sim.Topo.Node(h.Link.Other(h.Node)).Name
		if want[hop] {
			t.Errorf("victim flow %d rides the cyclic channel %s", victim.ID, hop)
		}
	}
}

func TestFatTreeScenarioPathsAreShortest(t *testing.T) {
	// The explicit paths must not be longer than SPF distances on the
	// failed topology — they are legitimate routes, not contrivances.
	sim := caseStudySim(t)
	tab := routing.NewSPF(sim.Topo)
	for _, f := range sim.Flows {
		d, ok := tab.Distance(f.Src, f.Dst)
		if !ok {
			t.Fatalf("flow %d: dst unreachable", f.ID)
		}
		if len(f.Path) != d {
			t.Errorf("flow %d: explicit path %d hops, SPF %d", f.ID, len(f.Path), d)
		}
	}
}

func TestCaseStudySteadyState(t *testing.T) {
	// Figure 12(b)/13(b): under GFC the four flows share 5 Gb/s each.
	for _, fc := range []FC{GFCBuf, GFCTime} {
		res, err := RunCaseStudy(CaseStudyConfig{FC: fc}, RunOptions{Duration: 40 * units.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		if res.Deadlocked {
			t.Fatalf("%s deadlocked in the critical case study", fc)
		}
		if res.Drops != 0 {
			t.Fatalf("%s drops = %d", fc, res.Drops)
		}
		for i, r := range res.FlowRates {
			if r < 4.5*units.Gbps || r > 5.5*units.Gbps {
				t.Errorf("%s flow %d rate %v, want ≈5G", fc, i+1, r)
			}
		}
	}
}

func TestCaseStudyDeadlockFormation(t *testing.T) {
	// With the cross-flow squeeze, PFC and CBFC deadlock (paper Fig
	// 12(a)/13(a); our PFC collapse at ≈8 ms mirrors the paper's 8.5 ms
	// Figure 18 timing), while both GFC variants keep the network alive.
	for _, tc := range []struct {
		fc   FC
		dead bool
	}{
		{PFC, true}, {CBFC, true}, {GFCBuf, false}, {GFCTime, false},
	} {
		res, err := RunCaseStudy(CaseStudyConfig{FC: tc.fc, WithCross: true},
			RunOptions{Duration: 40 * units.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		if res.Deadlocked != tc.dead {
			t.Errorf("%s deadlocked=%v, want %v", tc.fc, res.Deadlocked, tc.dead)
		}
		if res.Drops != 0 {
			t.Errorf("%s drops = %d", tc.fc, res.Drops)
		}
	}
}

func TestCaseStudyVictim(t *testing.T) {
	// Figure 14: after PFC deadlocks, the victim flow (which avoids the
	// CBD channels) starves; under GFC it keeps its full share in the
	// critical configuration.
	o := RunOptions{Duration: 40 * units.Millisecond}
	res, err := RunCaseStudy(CaseStudyConfig{FC: PFC, WithCross: true, WithVictim: true}, o)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deadlocked {
		t.Fatal("PFC did not deadlock")
	}
	if res.VictimRate != 0 {
		t.Errorf("PFC victim rate %v, want 0 (starved)", res.VictimRate)
	}
	res, err = RunCaseStudy(CaseStudyConfig{FC: GFCBuf, WithVictim: true}, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.VictimRate < 4*units.Gbps {
		t.Errorf("GFC victim rate %v, want ≈5G", res.VictimRate)
	}
}

func TestRunFig5(t *testing.T) {
	// Conceptual GFC: queue converges to B_s = 75KB, rate to 5G.
	res, err := RunFig5(GFCConceptual, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Drops != 0 {
		t.Fatalf("drops = %d", res.Drops)
	}
	if q := res.SteadyQueue; q < 70*units.KB || q > 80*units.KB {
		t.Errorf("steady queue %v, want ≈75KB", q)
	}
	if r := units.Rate(res.Rate.MeanAfter(15 * units.Millisecond)); r < 4.5*units.Gbps || r > 5.5*units.Gbps {
		t.Errorf("steady rate %v, want ≈5G", r)
	}

	// PFC: queue saws between XON/XOFF; the rate trace must contain
	// both line-rate and zero bins (ON/OFF alternation).
	pfc, err := RunFig5(PFC, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if pfc.Drops != 0 {
		t.Fatalf("PFC drops = %d", pfc.Drops)
	}
	var sawZero, sawLine bool
	for i, v := range pfc.Rate.V {
		if pfc.Rate.T[i] < 5*units.Millisecond {
			continue // skip the fill transient
		}
		if v == 0 {
			sawZero = true
		}
		if v > 9e9 {
			sawLine = true
		}
	}
	if !sawZero || !sawLine {
		t.Errorf("PFC rate did not alternate 0↔line (zero=%v line=%v)", sawZero, sawLine)
	}
	// Queue stays in the XON..XOFF+headroom band at steady state.
	if q := pfc.SteadyQueue; q < 70*units.KB || q > 90*units.KB {
		t.Errorf("PFC steady queue %v, want near XOFF=80KB", q)
	}
}

func TestRunRingMatchesPaper(t *testing.T) {
	// Figure 9(b): buffer-based GFC settles with the host queue in the
	// first stage band and the input rate at 5G.
	res, err := RunRing(RingConfig{FC: GFCBuf}, RunOptions{Duration: 40 * units.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlocked || res.Drops != 0 {
		t.Fatalf("GFC ring: deadlock=%v drops=%d", res.Deadlocked, res.Drops)
	}
	if q := res.SteadyQueue; q < 740*units.KB || q > 890*units.KB {
		t.Errorf("steady queue %v, paper ≈840KB", q)
	}
	if r := res.SteadyRate; r < 4.5*units.Gbps || r > 5.5*units.Gbps {
		t.Errorf("steady rate %v, paper 5G", r)
	}

	// Figure 9(a): PFC deadlocks in the 2-host formation regime.
	pfc, err := RunRing(RingConfig{FC: PFC, HostsPerSwitch: 2}, RunOptions{Duration: 60 * units.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if !pfc.Deadlocked {
		t.Error("PFC ring did not deadlock")
	}
}

func TestRunFig10Shapes(t *testing.T) {
	// Figure 10(b): time-based GFC settles near 745 KB at 5G.
	res, err := RunRing(RingConfig{FC: GFCTime}, RunOptions{Duration: 40 * units.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlocked || res.Drops != 0 {
		t.Fatalf("GFC-time ring: deadlock=%v drops=%d", res.Deadlocked, res.Drops)
	}
	if q := res.SteadyQueue; q < 650*units.KB || q > 800*units.KB {
		t.Errorf("steady queue %v, paper ≈745KB", q)
	}
	// Figure 10(a): CBFC deadlocks in the formation regime.
	cb, err := RunRing(RingConfig{FC: CBFC, HostsPerSwitch: 2}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !cb.Deadlocked {
		t.Error("CBFC ring did not deadlock")
	}
}

func TestRunFig20Interaction(t *testing.T) {
	res, err := RunFig20(RunOptions{Duration: 15 * units.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Drops != 0 {
		t.Fatalf("drops = %d", res.Drops)
	}
	// GFC must have capped the onset: ingress queues bounded well below
	// the 1MB buffer.
	if res.MaxQueue >= 900*units.KB {
		t.Errorf("max queue %v; GFC safeguard failed", res.MaxQueue)
	}
	// DCQCN converges near the 1.25G fair share and below GFC's cap.
	if res.FinalDCQCN < 0.4*units.Gbps || res.FinalDCQCN > 3*units.Gbps {
		t.Errorf("final DCQCN rate %v, want ≈1.25G", res.FinalDCQCN)
	}
	// Either GFC capped the onset (port rate dipped below line rate)
	// or DCQCN reacted fast enough that the queue never reached B1 —
	// both are the §7 division of labour; what must NOT happen is a
	// deep queue with GFC silent.
	var gfcEarly float64 = 10e9
	for i, ts := range res.GFCRate.T {
		if ts < units.Millisecond && res.GFCRate.V[i] < gfcEarly {
			gfcEarly = res.GFCRate.V[i]
		}
	}
	if gfcEarly >= 10e9 && res.MaxQueue >= 275*units.KB {
		t.Error("queue crossed B1 but GFC never limited the port")
	}
}

func TestRunOverheadFig19(t *testing.T) {
	res, err := RunOverhead(OverheadConfig{K: 4, Seed: 3}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Drops != 0 {
		t.Fatalf("drops = %d", res.Drops)
	}
	// Paper: mean 0.21%, 99% < 0.4%, max 0.49%. Shape check: all tiny.
	if res.Mean > 0.005 {
		t.Errorf("mean overhead %.4f, want < 0.5%%", res.Mean)
	}
	if res.Max > 0.02 {
		t.Errorf("max overhead %.4f, implausibly high", res.Max)
	}
	if res.CDF.Len() == 0 {
		t.Fatal("no samples")
	}
	// The k=4 reading EXPERIMENTS.md quotes beside the CLI's k=8 one.
	got := fmt.Sprintf("mean %.4f%% p99 %.4f%% max %.4f%%", res.Mean*100, res.P99*100, res.Max*100)
	if want := "mean 0.0107% p99 0.2662% max 0.4506%"; got != want {
		t.Errorf("k=4 seed 3 overhead: %s, want %s", got, want)
	}
}

func TestGenerateScenarioDeterminism(t *testing.T) {
	_, _, p1 := GenerateScenario(4, 0.05, 35)
	_, _, p2 := GenerateScenario(4, 0.05, 35)
	if p1 != p2 {
		t.Fatal("scenario generation not deterministic")
	}
	if !p1 {
		t.Fatal("seed 35 should be CBD-prone (regression guard)")
	}
}

func TestRunScenarioSmoke(t *testing.T) {
	topo, tab, prone := GenerateScenario(4, 0.05, 35)
	if !prone {
		t.Skip("seed no longer prone")
	}
	cfg := DefaultSweep(4)
	cfg.Duration = 5 * units.Millisecond
	res, err := RunScenario(context.Background(), topo, tab, GFCBuf, cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlocked {
		t.Error("GFC deadlocked in sweep scenario")
	}
	if res.Drops != 0 {
		t.Errorf("drops = %d", res.Drops)
	}
	if res.HostBandwidth <= 0 {
		t.Error("no goodput recorded")
	}
}

// TestLaneShareOfSweepCell is scenario.TestLaneShareAcrossCatalogue for the
// cell the Table 1 sweep is made of: on one CBD-prone k=4 topology, each sweep
// scheme must keep at least 0.90 of its Engine.After calls in the engine's
// constant-delay lanes, with every tap a sweep repeat builds with attached.
func TestLaneShareOfSweepCell(t *testing.T) {
	topo, tab, prone := GenerateScenario(4, 0.05, 35)
	if !prone {
		t.Skip("seed no longer prone")
	}
	cfg := DefaultSweep(4)
	cfg.Duration = 5 * units.Millisecond
	cfg.Analytic = true
	for _, fc := range []FC{PFC, GFCBuf, GFCTime} {
		sim, err := scenario.Build(sweepSpec(fc, cfg, 7), repeatOverrides(topo, tab))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := runRepeat(context.Background(), sim, topo, cfg); err != nil {
			t.Fatalf("%s: %v", fc, err)
		}
		laned, after := sim.Net.Engine().LaneStats()
		if after == 0 {
			t.Fatalf("%s: the cell made no After call", fc)
		}
		share := float64(laned) / float64(after)
		t.Logf("%s: %d of %d After calls laned: %.3f", fc, laned, after, share)
		if share < 0.90 {
			t.Errorf("%s: lane share %.3f is under 0.90", fc, share)
		}
	}
}

func TestFig15Rows(t *testing.T) {
	tbl := Fig15Rows()
	out := tbl.String()
	if !strings.Contains(out, "10KB") || !strings.Contains(out, "0.65") {
		t.Errorf("Fig15 table missing expected knots:\n%s", out)
	}
}

func TestReportTables(t *testing.T) {
	results := map[int]map[FC]*SweepResult{
		4: {
			PFC:    {FC: PFC, K: 4, CBDProne: 5, DeadlockCases: 2},
			GFCBuf: {FC: GFCBuf, K: 4, CBDProne: 5, DeadlockCases: 0},
		},
	}
	results[4][PFC].Bandwidth.Add(5e9)
	results[4][PFC].Slowdown.Add(2.0)
	results[4][GFCBuf].Bandwidth.Add(5e9)
	results[4][GFCBuf].Slowdown.Add(2.0)

	t1 := Table1Rows(results, []int{4}).String()
	if !strings.Contains(t1, "k=4") || !strings.Contains(t1, "2") {
		t.Errorf("Table1:\n%s", t1)
	}
	f16 := Fig16Rows(results, []int{4}).String()
	if !strings.Contains(f16, "5Gbps") {
		t.Errorf("Fig16:\n%s", f16)
	}
	f17 := Fig17Rows(results, []int{4}).String()
	if !strings.Contains(f17, "1.000") {
		t.Errorf("Fig17:\n%s", f17)
	}
}

func TestRunEvolutionPFCCollapse(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	res, err := RunEvolution(PFC, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deadlocked {
		t.Skip("selected seed no longer deadlocks under PFC; Figure 18 bench scans seeds")
	}
	gfc, err := RunEvolution(GFCBuf, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if gfc.Deadlocked {
		t.Error("GFC deadlocked in evolution run")
	}
	if gfc.FinalRate < units.Gbps {
		t.Errorf("GFC final aggregate %v, want healthy", gfc.FinalRate)
	}
	// The paper's k=16 network wedges completely within ~200µs; in this
	// reduced k=4 horizon the collapse is partial — CBD-adjacent hosts
	// freeze while distant ones keep running until their next dead-path
	// destination. The comparative claim must hold: PFC's post-deadlock
	// aggregate sits well below GFC's on the identical scenario.
	if res.FinalRate >= gfc.FinalRate*3/4 {
		t.Errorf("PFC final %v not clearly below GFC final %v", res.FinalRate, gfc.FinalRate)
	}
}
