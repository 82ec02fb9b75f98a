package faults_test

// Fuzz harness for the fault-plan pipeline: any JSON the spec parser
// accepts must compile and drive a simulation without panicking, and — once
// its feedback faults are clamped to the bounded regime the safety analysis
// covers — without costing buffer-based GFC a single packet. The clamp is
// the τ′ budget of the theorems made operational: MaxBurst 1 and a small
// delay cap bound feedback staleness at one refresh period plus the cap,
// and the run's Tau budgets for it, so losslessness must hold no matter
// what else the fuzzer dreamed up (flaps, degrades, feedback windows).

import (
	"testing"

	"github.com/gfcsim/gfc/internal/faults"
	"github.com/gfcsim/gfc/internal/flowcontrol"
	"github.com/gfcsim/gfc/internal/metrics"
	"github.com/gfcsim/gfc/internal/netsim"
	"github.com/gfcsim/gfc/internal/routing"
	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
)

// clampFeedback bounds every feedback fault to the repairable regime:
// at most one consecutive loss per channel and at most 10 µs + 5 µs of
// injected latency. Drop probability may stay anything in [0,1].
func clampFeedback(s *faults.Spec) {
	for i := range s.Links {
		for j := range s.Links[i].Feedback {
			fb := &s.Links[i].Feedback[j]
			if fb.MaxBurst < 1 || fb.MaxBurst > 1 {
				fb.MaxBurst = 1
			}
			if fb.Delay > 10*units.Microsecond {
				fb.Delay = 10 * units.Microsecond
			}
			if fb.Jitter > 5*units.Microsecond {
				fb.Jitter = 5 * units.Microsecond
			}
		}
	}
}

// faultedRun simulates 5 ms of the critically loaded fig9 ring under
// buffer-based GFC with periodic refresh and the given plan, returning
// (drops, violations, delivered, injector stats).
func faultedRun(t *testing.T, plan *faults.Plan, seed int64) (int64, int64, units.Size, faults.Stats) {
	t.Helper()
	topo := topology.RingHosts(3, 1, topology.DefaultLinkParams())
	reg := metrics.New(metrics.Options{})
	inj := plan.NewInjector(seed)
	cfg := netsim.Config{
		BufferSize: 1000 * units.KB,
		// Budget Tau for the clamped worst case: feedback latency plus
		// one lost message repaired by the next 52.4 µs refresh, plus
		// the injected delay cap.
		Tau: 150 * units.Microsecond,
		FlowControl: flowcontrol.NewGFCBuffer(flowcontrol.GFCBufferConfig{
			Refresh: 52400 * units.Nanosecond,
		}),
		Metrics: reg,
		Faults:  inj,
	}
	n, err := netsim.New(topo, cfg)
	if err != nil {
		t.Fatalf("building faulted sim: %v", err)
	}
	var delivered units.Size
	flows := make([]*netsim.Flow, 0, 3)
	for i, path := range routing.RingHostsClockwisePaths(topo, 3, 1) {
		f := &netsim.Flow{
			ID:   i + 1,
			Src:  path[0].Node,
			Dst:  path[len(path)-1].Link.Other(path[len(path)-1].Node),
			Path: path,
		}
		if err := n.AddFlow(f, 0); err != nil {
			t.Fatalf("adding flow: %v", err)
		}
		flows = append(flows, f)
	}
	n.Run(5 * units.Millisecond)
	for _, f := range flows {
		delivered += f.Delivered
	}
	return n.Drops(), reg.Summary().Violations, delivered, inj.Stats()
}

func FuzzFaultPlan(f *testing.F) {
	// One seed per fault family, plus a kitchen-sink combination.
	f.Add([]byte(`{"links":[{"link":"*","feedback":[{"drop_prob":0.3,"max_burst":1}]}]}`), int64(1))
	f.Add([]byte(`{"links":[{"link":"*","feedback":[{"delay_ns":10000,"jitter_ns":5000}]}]}`), int64(2))
	f.Add([]byte(`{"links":[{"link":"S1-S2","flaps":[{"down_at_ns":1000000,"up_at_ns":2000000}]}]}`), int64(3))
	f.Add([]byte(`{"links":[{"link":"*","degrade":[{"from_ns":500000,"until_ns":3000000,"factor":0.4}]}]}`), int64(4))
	f.Add([]byte(`{"links":[{"link":"*","feedback":[{"drop_prob":0.5,"max_burst":1,"kinds":["STAGE"],"from_ns":1000000,"until_ns":2000000}]}]}`), int64(5))
	f.Add([]byte(`{"links":[{"link":"S1-*","feedback":[{"drop_prob":1,"kinds":["STAGE"],"max_burst":1}],"degrade":[{"from_ns":0,"factor":0.5}]},{"link":"S2-S3","flaps":[{"down_at_ns":500000,"up_at_ns":1500000}]}]}`), int64(6))

	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		spec, err := faults.Parse(data)
		if err != nil {
			t.Skip() // malformed JSON / invalid spec: rejection is the contract
		}
		clampFeedback(spec)
		topo := topology.RingHosts(3, 1, topology.DefaultLinkParams())
		plan, err := spec.Compile(topo)
		if err != nil {
			t.Skip() // e.g. link names not present on the ring
		}
		drops, violations, delivered, stats := faultedRun(t, plan, seed)
		if drops != 0 {
			t.Fatalf("buffer-based GFC dropped %d packets under bounded faults:\n%s", drops, data)
		}
		if violations != 0 {
			t.Fatalf("%d invariant violations under bounded faults:\n%s", violations, data)
		}
		// Replay determinism: the same (plan, seed) must reproduce the
		// run bit-identically — same injector decisions, same goodput.
		drops2, violations2, delivered2, stats2 := faultedRun(t, plan, seed)
		if drops2 != drops || violations2 != violations || delivered2 != delivered || stats2 != stats {
			t.Fatalf("faulted run not deterministic: (%d,%d,%v,%+v) vs (%d,%d,%v,%+v)",
				drops, violations, delivered, stats, drops2, violations2, delivered2, stats2)
		}
	})
}
