package metrics

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/gfcsim/gfc/internal/core"
	"github.com/gfcsim/gfc/internal/flowcontrol"
	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
)

// twoNodeLayout binds r to a minimal topology, h0 — s1 — h2: node 0 (a host
// whose ingress holds 10 000 B), node 1 (a switch whose two ingresses, fed by
// h0 and h2, hold 20 000 B) and node 2 (a host).
func twoNodeLayout(r *Registry) {
	topo := topology.New()
	h0, s1, h2 := topo.AddHost("h0"), topo.AddSwitch("s1"), topo.AddHost("h2")
	topo.AddLink(h0, s1, units.Gbps, 0)
	topo.AddLink(s1, h2, units.Gbps, 0)
	r.Bind(topo, 20000, 10000)
}

func TestBindIndexing(t *testing.T) {
	r := New(Options{})
	twoNodeLayout(r)
	if got := r.Summary().Channels; got != 4 {
		t.Fatalf("Channels = %d, want 4", got)
	}
	// Dense layout: every (node, port) maps to a distinct in-range index
	// with the matching identity and allocation.
	seen := make(map[int]bool)
	for _, tc := range []struct {
		node, port int
		name, from string
		buffer     units.Size
	}{{0, 0, "h0", "s1", 10000}, {1, 0, "s1", "h0", 20000}, {1, 1, "s1", "h2", 20000}, {2, 0, "h2", "s1", 10000}} {
		idx := r.ChannelIndex(topology.NodeID(tc.node), tc.port)
		if idx < 0 || idx >= 4 || seen[idx] {
			t.Fatalf("ChannelIndex(%d,%d) = %d (dup or out of range)", tc.node, tc.port, idx)
		}
		seen[idx] = true
		if name, port, from := r.names(idx); name != tc.name || port != tc.port || from != tc.from {
			t.Errorf("channel %d = %s port %d from %s, want %s port %d from %s",
				idx, name, port, from, tc.name, tc.port, tc.from)
		}
		if got := r.buffers[idx]; got != tc.buffer {
			t.Errorf("channel %d buffer = %v, want %v", idx, got, tc.buffer)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("second Bind did not panic")
		}
	}()
	twoNodeLayout(r)
}

func TestCountersAndHighWater(t *testing.T) {
	r := New(Options{})
	twoNodeLayout(r)
	idx := r.ChannelIndex(1, 0)
	r.OnTx(idx, 1500)
	r.OnAdmit(idx, 10, 1500, 1500)
	r.OnTx(idx, 1500)
	r.OnAdmit(idx, 20, 1500, 3000)
	r.OnRelease(idx, 30, 1500, 1500)
	r.OnAdmit(idx, 40, 500, 2000) // below high water: no new mark
	c := r.Counter(idx)
	if c.BytesIn != 3500 || c.BytesOut != 3000 || c.Departed != 1500 {
		t.Errorf("bytes in/out/departed = %v/%v/%v", c.BytesIn, c.BytesOut, c.Departed)
	}
	if c.HighWater != 3000 {
		t.Errorf("HighWater = %v, want 3000", c.HighWater)
	}
	if c.Admits != 3 || c.Drops != 0 {
		t.Errorf("Admits/Drops = %d/%d", c.Admits, c.Drops)
	}
	if c.LastDepartAt != 30 {
		t.Errorf("LastDepartAt = %v", c.LastDepartAt)
	}
	if err := r.Err(); err != nil {
		t.Errorf("Err = %v, want nil", err)
	}
}

func TestFeedbackClasses(t *testing.T) {
	r := New(Options{})
	twoNodeLayout(r)
	idx := r.ChannelIndex(1, 0)
	r.OnFeedback(idx, 1, flowcontrol.KindPause, 0)
	r.OnFeedback(idx, 2, flowcontrol.KindResume, 0)
	r.OnFeedback(idx, 3, flowcontrol.KindStage, 2)
	r.OnFeedback(idx, 4, flowcontrol.KindStage, 1)
	r.OnFeedback(idx, 5, flowcontrol.KindCredit, 0)
	r.OnFeedback(idx, 6, flowcontrol.KindQueue, 0)
	// BFC's per-queue pause and resume count as pause and resume.
	r.OnFeedback(idx, 7, flowcontrol.KindQueuePause, 0)
	r.OnFeedback(idx, 8, flowcontrol.KindQueueResume, 0)
	c := r.Counter(idx)
	if c.FeedbackMsgs != 8 || c.FeedbackWire != 8*flowcontrol.MessageSize {
		t.Errorf("FeedbackMsgs/Wire = %d/%v", c.FeedbackMsgs, c.FeedbackWire)
	}
	if c.PauseMsgs != 2 || c.ResumeMsgs != 2 || c.StageMsgs != 2 || c.CreditMsgs != 1 || c.QueueMsgs != 1 {
		t.Errorf("per-class counts = %+v", c)
	}
	if c.LastStage != 1 || c.MaxStage != 2 {
		t.Errorf("LastStage/MaxStage = %d/%d", c.LastStage, c.MaxStage)
	}
}

func TestViolationsOverflowCeilingDrop(t *testing.T) {
	r := New(Options{})
	twoNodeLayout(r)
	idx := r.ChannelIndex(1, 0)

	// Ceiling violation on a new high-water mark above the theorem bound.
	r.SetCeiling(idx, 15000)
	r.OnAdmit(idx, 10, 1500, 16000)
	// Overflow wins over ceiling when both are exceeded.
	r.OnAdmit(idx, 20, 1500, 21000)
	// Not a new high-water mark: no repeat violation.
	r.OnAdmit(idx, 30, 1500, 21000)
	// Drops always violate.
	r.OnDrop(idx, 40, 1500, 21000)

	vs := r.violations
	if len(vs) != 3 {
		t.Fatalf("violations = %d, want 3: %v", len(vs), vs)
	}
	if vs[0].Kind != ViolationCeiling || vs[0].Occupancy != 16000 || vs[0].Limit != 15000 {
		t.Errorf("violation 0 = %+v", vs[0])
	}
	if vs[1].Kind != ViolationOverflow || vs[1].Limit != 20000 {
		t.Errorf("violation 1 = %+v", vs[1])
	}
	if vs[2].Kind != ViolationDrop {
		t.Errorf("violation 2 = %+v", vs[2])
	}
	if vs[0].NodeName != "s1" || vs[0].FromName != "h0" {
		t.Errorf("violation identity = %+v", vs[0])
	}
	err := r.Err()
	if err == nil {
		t.Fatal("Err = nil after violations")
	}
	var ie *InvariantError
	if !errors.As(err, &ie) || len(ie.Violations) != 3 {
		t.Fatalf("Err = %v", err)
	}
	if !strings.Contains(err.Error(), "overflow") {
		t.Errorf("Error() = %q", err.Error())
	}
}

func TestViolationTruncation(t *testing.T) {
	r := New(Options{})
	twoNodeLayout(r)
	idx := r.ChannelIndex(1, 0)
	for i := 0; i < maxViolations+3; i++ {
		r.OnDrop(idx, units.Time(i), 100, 100)
	}
	if got := len(r.violations); got != maxViolations {
		t.Errorf("recorded = %d, want %d", got, maxViolations)
	}
	var ie *InvariantError
	if !errors.As(r.Err(), &ie) || ie.Truncated != 3 {
		t.Fatalf("Err = %v", r.Err())
	}
	if want := fmt.Sprintf("%d invariant violation(s)", maxViolations+3); !strings.Contains(ie.Error(), want) {
		t.Errorf("Error() = %q", ie.Error())
	}
}

func TestStageRangeViolation(t *testing.T) {
	r := New(Options{})
	twoNodeLayout(r)
	idx := r.ChannelIndex(1, 0)
	tbl, err := core.NewStageTableRatio(100*units.Gbps, 18000, 10000, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	r.CheckStageTable(idx, tbl)
	if r.Err() != nil {
		t.Fatalf("valid table recorded violation: %v", r.Err())
	}
	r.OnFeedback(idx, 1, flowcontrol.KindStage, tbl.Stages()) // in range
	if r.Err() != nil {
		t.Fatalf("in-range stage violated: %v", r.Err())
	}
	r.OnFeedback(idx, 2, flowcontrol.KindStage, tbl.Stages()+1)
	r.OnFeedback(idx, 3, flowcontrol.KindStage, -1)
	vs := r.violations
	if len(vs) != 2 || vs[0].Kind != ViolationStageRange || vs[1].Kind != ViolationStageRange {
		t.Fatalf("violations = %v", vs)
	}
	// Without an armed table, out-of-range stages are not checkable.
	idx2 := r.ChannelIndex(1, 1)
	r.OnFeedback(idx2, 4, flowcontrol.KindStage, 99)
	if got := len(r.violations); got != 2 {
		t.Errorf("unarmed channel recorded stage violation (total %d)", got)
	}
}

func TestValidateStageTable(t *testing.T) {
	tbl, err := core.NewStageTableRatio(100*units.Gbps, 18000, 10000, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateStageTable(tbl); err != nil {
		t.Errorf("valid table rejected: %v", err)
	}
}

func TestRingSeries(t *testing.T) {
	r := New(Options{SeriesCap: 4})
	twoNodeLayout(r)
	idx := r.ChannelIndex(1, 0)
	if r.Series(idx) != nil {
		t.Fatal("empty channel has a series")
	}
	for i := 1; i <= 6; i++ {
		r.OnAdmit(idx, units.Time(i)*seriesGap, 100, units.Size(i*100))
	}
	s := r.Series(idx)
	if s == nil || s.Len() != 4 {
		t.Fatalf("series = %+v, want 4 samples", s)
	}
	// Ring keeps the most recent window, oldest first.
	if s.T[0] != 3*seriesGap || s.T[3] != 6*seriesGap || s.V[3] != 600 {
		t.Errorf("series window = %+v", s)
	}
}

func TestSeriesGapRateLimit(t *testing.T) {
	r := New(Options{SeriesCap: 16})
	twoNodeLayout(r)
	idx := r.ChannelIndex(1, 0)
	const g = seriesGap
	r.OnAdmit(idx, 0, 100, 100)   // sampled (first)
	r.OnAdmit(idx, g/2, 100, 200) // suppressed: within gap
	r.OnAdmit(idx, g, 100, 300)   // sampled
	r.OnRelease(idx, 3*g/2, 100, 200)
	r.OnRelease(idx, 5*g/2, 100, 100) // sampled
	s := r.Series(idx)
	if s.Len() != 3 {
		t.Fatalf("series len = %d, want 3 (%+v)", s.Len(), s)
	}
	if s.T[0] != 0 || s.T[1] != g || s.T[2] != 5*g/2 {
		t.Errorf("sample times = %v", s.T)
	}
}

func TestReportAndJSONRoundTrip(t *testing.T) {
	r := New(Options{SeriesCap: 8})
	twoNodeLayout(r)
	idx := r.ChannelIndex(1, 0)
	r.OnTx(idx, 1500)
	r.OnAdmit(idx, 10, 1500, 1500)
	r.OnRelease(idx, 10+seriesGap, 1500, 0)
	r.OnFeedback(idx, 30, flowcontrol.KindStage, 1)

	rep := r.Report(1000)
	if rep.At != 1000 {
		t.Errorf("report header = %+v", rep)
	}
	// Idle channels are skipped.
	if len(rep.Channels) != 1 {
		t.Fatalf("channels = %d, want 1", len(rep.Channels))
	}
	c := rep.Channels[0]
	if c.Node != "s1" || c.Port != 0 || c.From != "h0" {
		t.Errorf("channel identity = %+v", c)
	}
	if c.Occupancy == nil || len(c.Occupancy.T) != 2 {
		t.Errorf("occupancy series = %+v", c.Occupancy)
	}

	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if back.Totals.BytesIn != 1500 || back.Totals.FeedbackMsgs != 1 {
		t.Errorf("round-tripped totals = %+v", back.Totals)
	}
	if len(back.Channels) != 1 || back.Channels[0].HighWater != 1500 {
		t.Errorf("round-tripped channels = %+v", back.Channels)
	}
}
