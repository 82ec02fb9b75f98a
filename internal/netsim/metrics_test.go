package netsim

import (
	"errors"
	"testing"

	"github.com/gfcsim/gfc/internal/flowcontrol"
	"github.com/gfcsim/gfc/internal/metrics"
	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
)

// runCongested drives the 2:1 incast with GFC and the given registry
// attached, returning the network after 5 ms of simulated time.
func runCongested(t *testing.T, reg *metrics.Registry) (*Network, units.Size) {
	t.Helper()
	topo := topology.TwoToOne(topology.DefaultLinkParams())
	cfg := baseConfig(gfcFactory())
	cfg.Metrics = reg
	var feedback units.Size
	cfg.Trace = &Trace{
		OnFeedback: func(units.Time, topology.NodeID, int) { feedback += flowcontrol.MessageSize },
	}
	n, err := New(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, src := range []string{"H1", "H2"} {
		if err := n.AddFlow(spfFlow(t, topo, i+1, src, "H3", 0), 0); err != nil {
			t.Fatal(err)
		}
	}
	n.Run(5 * units.Millisecond)
	return n, feedback
}

func TestMetricsIntegration(t *testing.T) {
	reg := metrics.New(metrics.Options{SeriesCap: 256})
	n, feedback := runCongested(t, reg)
	if n.metrics != reg {
		t.Fatal("the attached registry is not bound")
	}

	sum := reg.Summary()
	if sum.BytesIn == 0 || sum.BytesOut == 0 {
		t.Fatalf("no traffic recorded: %+v", sum)
	}
	if sum.Drops != 0 || n.Drops() != 0 {
		t.Fatalf("drops: summary %d, network %d", sum.Drops, n.Drops())
	}
	// The registry's wire accounting must agree with the trace's.
	if sum.FeedbackWire != feedback {
		t.Fatalf("FeedbackWire %v != traced feedback bytes %v", sum.FeedbackWire, feedback)
	}
	if sum.FeedbackMsgs == 0 || sum.StageMsgs == 0 {
		t.Fatalf("GFC run recorded no stage feedback: %+v", sum)
	}

	// The congested switch ingress must have queued, stayed within its
	// buffer, recorded progress, and produced an occupancy series.
	sw, h1 := n.Topology().MustLookup("S1"), n.Topology().MustLookup("H1")
	idx := reg.ChannelIndex(sw, n.Topology().LinkBetween(sw, h1).PortOn(sw))
	c := reg.Counter(idx)
	if c.BytesIn == 0 || c.Departed == 0 || c.Admits == 0 {
		t.Fatalf("switch ingress counters empty: %+v", c)
	}
	rep := reg.Report(n.Now())
	var ch metrics.ChannelReport
	for _, cr := range rep.Channels {
		if cr.Node == "S1" && cr.From == "H1" {
			ch = cr
		}
	}
	if c.HighWater == 0 || c.HighWater > ch.Buffer {
		t.Fatalf("HighWater %v outside (0, %v]", c.HighWater, ch.Buffer)
	}
	if c.LastDepartAt == 0 {
		t.Fatal("LastDepartAt never set")
	}
	if s := reg.Series(idx); s == nil || s.Len() == 0 {
		t.Fatal("no occupancy series for the congested ingress")
	}
	// GFC under 2:1 congestion must have pushed past stage 0, and netsim
	// must have armed the stage table so the IDs were range-checked.
	if c.MaxStage < 1 {
		t.Fatalf("MaxStage = %d, want ≥ 1 under congestion", c.MaxStage)
	}
	// netsim derives the theorem ceiling from the sender's Bm.
	if ch.Ceiling == 0 || ch.Ceiling > ch.Buffer {
		t.Fatalf("ceiling %v not derived within buffer %v", ch.Ceiling, ch.Buffer)
	}

	// A clean lossless run reports no violations.
	if err := reg.Err(); err != nil {
		t.Fatalf("invariants violated on a clean run: %v", err)
	}
	if len(rep.Channels) == 0 || rep.Totals.BytesIn != sum.BytesIn {
		t.Fatalf("report inconsistent: %+v", rep.Totals)
	}
}

// A deliberately tightened ceiling must be caught by the invariant checker
// and surfaced as a structured report — the acceptance test for seeded
// buffer-bound violations.
func TestMetricsSeededViolation(t *testing.T) {
	reg := metrics.New(metrics.Options{})
	topo := topology.TwoToOne(topology.DefaultLinkParams())
	cfg := baseConfig(gfcFactory())
	cfg.Metrics = reg
	n, err := New(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sw, h1 := topo.MustLookup("S1"), topo.MustLookup("H1")
	idx := reg.ChannelIndex(sw, n.Topology().LinkBetween(sw, h1).PortOn(sw))
	reg.SetCeiling(idx, 2*units.KB) // far below what 2:1 congestion queues
	for i, src := range []string{"H1", "H2"} {
		if err := n.AddFlow(spfFlow(t, topo, i+1, src, "H3", 0), 0); err != nil {
			t.Fatal(err)
		}
	}
	n.Run(5 * units.Millisecond)

	err = reg.Err()
	if err == nil {
		t.Fatal("seeded ceiling violation not caught")
	}
	var ie *metrics.InvariantError
	if !errors.As(err, &ie) {
		t.Fatalf("Err type = %T (%v)", err, err)
	}
	found := false
	for _, v := range ie.Violations {
		if v.Kind == metrics.ViolationCeiling && v.NodeName == "S1" && v.Limit == 2*units.KB {
			found = true
			if v.Occupancy <= v.Limit {
				t.Fatalf("violation occupancy %v not above limit %v", v.Occupancy, v.Limit)
			}
		}
	}
	if !found {
		t.Fatalf("no ceiling violation on the seeded channel: %v", ie.Violations)
	}
}

// Disabled metrics must stay invisible: identical delivery with and without
// a registry attached.
func TestMetricsDisabledParity(t *testing.T) {
	without, feedbackWithout := runCongested(t, nil)
	with, feedbackWith := runCongested(t, metrics.New(metrics.Options{SeriesCap: 256}))
	for i := range without.Flows() {
		a, b := without.Flows()[i], with.Flows()[i]
		if a.Delivered != b.Delivered {
			t.Fatalf("flow %d delivered %v without metrics, %v with", i, a.Delivered, b.Delivered)
		}
	}
	if feedbackWithout != feedbackWith {
		t.Fatal("metrics changed feedback behaviour")
	}
}
