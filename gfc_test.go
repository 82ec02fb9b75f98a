package gfc_test

import (
	"reflect"
	"testing"

	gfc "github.com/gfcsim/gfc"
	"github.com/gfcsim/gfc/internal/scenario"
)

// TestPublicAPIQuickstart exercises the façade end to end the way the README
// describes running a registered figure by name: look up the Figure 9 steady
// ring, build it, run GFC for 20 ms, observe no deadlock and no loss.
func TestPublicAPIQuickstart(t *testing.T) {
	spec, ok := gfc.Scenario("ring-steady-gfcbuf")
	if !ok {
		t.Fatal("ring-steady-gfcbuf is not registered")
	}
	spec.Run.DurationNs = 20 * gfc.Millisecond
	sim, err := gfc.Build(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run()
	if res.Deadlocked {
		t.Fatal("GFC deadlocked")
	}
	if res.Drops != 0 {
		t.Fatalf("drops = %d", res.Drops)
	}
	if res.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
}

// TestPublicAPIScenarios pins that a facade constructor declares exactly
// what the registry holds under the same name, so a library user and
// `gfcsim -scenario` run the same network at the same parameters.
func TestPublicAPIScenarios(t *testing.T) {
	for _, spec := range []gfc.Spec{
		gfc.TestbedRing(gfc.GFCBuffer, 1),
		gfc.TestbedRing(gfc.PFC, 2),
		gfc.CaseStudy(gfc.PFC, true, false),
		gfc.Incast(gfc.GFCBuffer),
		gfc.Overhead(gfc.GFCBuffer, 8, 1),
	} {
		registered, ok := gfc.Scenario(spec.Name)
		if !ok {
			t.Errorf("%s is not registered", spec.Name)
			continue
		}
		registered.Description = ""
		if !reflect.DeepEqual(spec, registered) {
			t.Errorf("%s: constructor and registry differ:\n %+v\n %+v", spec.Name, spec, registered)
		}
		if _, err := gfc.Build(spec, nil); err != nil {
			t.Errorf("%s: %v", spec.Name, err)
		}
	}
}

// TestPublicBuildValidates pins that the facade's Build refuses what Parse
// refuses: it used to panic on a negative duration, run an unknown detector as
// the global one and a negative wall budget as none.
func TestPublicBuildValidates(t *testing.T) {
	for _, mutate := range []func(*gfc.Spec){
		func(s *gfc.Spec) { s.Run.DurationNs = -1 },
		func(s *gfc.Spec) { s.Run.DetectDeadlock, s.Run.Detector = true, "bogus" },
		func(s *gfc.Spec) { s.Limits = &scenario.LimitsSpec{MaxWallMs: -5} },
	} {
		spec, _ := gfc.Scenario("ring-steady-gfcbuf")
		mutate(&spec)
		if _, err := gfc.Build(spec, nil); err == nil {
			t.Errorf("gfc.Build accepted %+v", spec.Run)
		}
	}
}

// TestPublicAPIMath spot-checks the re-exported parameter mathematics.
func TestPublicAPIMath(t *testing.T) {
	tau := gfc.Tau(10*gfc.Gbps, 1500*gfc.Byte, gfc.Microsecond, 3*gfc.Microsecond)
	if tau < 7*gfc.Microsecond || tau > 8*gfc.Microsecond {
		t.Fatalf("Tau = %v, want ≈7.4µs", tau)
	}
	b1 := gfc.BufferBasedB1Bound(1000*gfc.KB, 10*gfc.Gbps, tau)
	if b1 >= 1000*gfc.KB || b1 <= 900*gfc.KB {
		t.Fatalf("B1 bound = %v", b1)
	}
	st, err := gfc.NewSafeStageTable(10*gfc.Gbps, 1000*gfc.KB, b1, tau)
	if err != nil {
		t.Fatal(err)
	}
	if st.StageRate(1) != 5*gfc.Gbps {
		t.Fatalf("R1 = %v", st.StageRate(1))
	}
	m := gfc.ContinuousMapping{C: 10 * gfc.Gbps, B0: 50 * gfc.KB, Bm: 100 * gfc.KB}
	if m.SteadyQueue(5*gfc.Gbps) != 75*gfc.KB {
		t.Fatal("SteadyQueue wrong through the façade")
	}
}

// TestPublicAPICBD checks the static analysis entry points.
func TestPublicAPICBD(t *testing.T) {
	topo := gfc.FatTree(4, gfc.DefaultLinkParams())
	tab := gfc.NewSPF(topo)
	g := gfc.CBDFromAllPairs(topo, tab, gfc.EdgeRacks(topo))
	if g.HasCycle() {
		t.Fatal("healthy fat-tree reported CBD")
	}
}

// TestPublicAPIWorkload drives the enterprise traffic generator through the
// façade: the Figure 19 fabric at k=4 under PFC for 1 ms completes flows.
func TestPublicAPIWorkload(t *testing.T) {
	spec := gfc.Overhead(gfc.PFC, 4, 11)
	spec.Run.DurationNs = gfc.Millisecond
	sim, err := gfc.Build(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if len(sim.Gen.Completed) == 0 {
		t.Fatal("no flows completed")
	}
}
