package deadlock

import (
	"testing"

	"github.com/gfcsim/gfc/internal/faults"
	"github.com/gfcsim/gfc/internal/flowcontrol"
	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
)

// fakeFeedbackNet drives DCFIT's observer and clock directly, so the edge
// bookkeeping and cycle walk can be pinned without staging real traffic.
type fakeFeedbackNet struct {
	now  units.Time
	topo *topology.Topology
	obs  func(ch int, m flowcontrol.Message)
}

func (f *fakeFeedbackNet) Now() units.Time              { return f.now }
func (f *fakeFeedbackNet) Topology() *topology.Topology { return f.topo }
func (f *fakeFeedbackNet) SetFeedbackObserver(fn func(ch int, m flowcontrol.Message)) {
	f.obs = fn
}

// newFakeDCFIT returns DCFIT over fakeTopo(links...).
func newFakeDCFIT(links ...[2]topology.NodeID) (*DCFIT, *fakeFeedbackNet) {
	f := &fakeFeedbackNet{now: units.Millisecond, topo: fakeTopo(links...)}
	return NewDCFIT(f), f
}

// send delivers m, emitted by down, to its upstream up.
func (f *fakeFeedbackNet) send(up, down topology.NodeID, m flowcontrol.Message) {
	f.obs(port(f.topo, up, down), m)
}

// pause delivers a PAUSE emitted by down to its upstream up, creating the
// dependency edge up→down.
func (f *fakeFeedbackNet) pause(up, down topology.NodeID) {
	f.send(up, down, flowcontrol.Message{Kind: flowcontrol.KindPause})
}

func (f *fakeFeedbackNet) resume(up, down topology.NodeID) {
	f.send(up, down, flowcontrol.Message{Kind: flowcontrol.KindResume})
}

// liveEdges counts d's live pause edges.
func liveEdges(d *DCFIT) (n int) {
	for _, es := range d.edges {
		for _, e := range es {
			if e.live {
				n++
			}
		}
	}
	return n
}

// edgeOf reads the pause edge up→down on queue, and whether it is live.
func edgeOf(d *DCFIT, up, down topology.NodeID, queue int) (dcfitEdge, bool) {
	e := *d.at(edge{port(d.topo, up, down), queue})
	return e, e.live
}

// TestDCFITReportsCycleAfterWindow is the positive control: a closed
// 3-cycle of pauses (1→2→3→1) persisting a full window is a circular wait.
func TestDCFITReportsCycleAfterWindow(t *testing.T) {
	d, f := newFakeDCFIT()
	f.pause(1, 2)
	f.pause(2, 3)
	f.pause(3, 1)
	if rep := d.Check(); rep != nil {
		t.Fatalf("cycle reported before the persistence window: %+v", rep)
	}
	f.now += window
	rep := d.Check()
	if rep == nil {
		t.Fatal("persistent pause cycle not reported")
	}
	if rep.Kind != CircularWait {
		t.Fatalf("Kind = %v, want circular wait", rep.Kind)
	}
	if len(rep.Cycle) != 3 {
		t.Fatalf("cycle %v, want all 3 channels", rep.Cycle)
	}
	for i, c := range rep.Cycle {
		next := rep.Cycle[(i+1)%len(rep.Cycle)]
		if c.To != next.From {
			t.Fatalf("cycle does not chain: %v", rep.Cycle)
		}
	}
	if rep.StallFor < window {
		t.Fatalf("StallFor = %v, want ≥ window", rep.StallFor)
	}
	// Detection latches.
	if again := d.Check(); again != rep {
		t.Fatal("second Check did not return the latched report")
	}
}

// TestDCFITCycleAnyFormationOrder pins the parent-walk design decision: the
// cycle must be found regardless of the order the pauses were delivered in —
// including orders where delivery-time tag inheritance alone would leave the
// closing edge carrying a stale trigger.
func TestDCFITCycleAnyFormationOrder(t *testing.T) {
	edges := [3][2]topology.NodeID{{1, 2}, {2, 3}, {3, 1}}
	perms := [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	for _, p := range perms {
		d, f := newFakeDCFIT()
		for _, i := range p {
			f.pause(edges[i][0], edges[i][1])
		}
		d.Check()
		f.now += window
		if rep := d.Check(); rep == nil || len(rep.Cycle) != 3 {
			t.Errorf("order %v: cycle not reported (rep=%+v)", p, rep)
		}
	}
}

// TestDCFITChainIsNotACycle: a linear pause chain — however long-lived —
// has an unpaused tail and must never be reported.
func TestDCFITChainIsNotACycle(t *testing.T) {
	d, f := newFakeDCFIT()
	f.pause(1, 2)
	f.pause(2, 3)
	f.pause(3, 4) // node 4 is not paused by anyone: chain, not cycle
	for i := 0; i < 5; i++ {
		f.now += window
		if rep := d.Check(); rep != nil {
			t.Fatalf("pause chain reported as deadlock: %+v", rep)
		}
	}
}

// TestDCFITResumeResetsPersistence: a RESUME on a cycle edge breaks the
// candidate; the window must restart when the cycle re-forms.
func TestDCFITResumeResetsPersistence(t *testing.T) {
	d, f := newFakeDCFIT()
	f.pause(1, 2)
	f.pause(2, 3)
	f.pause(3, 1)
	d.Check() // candidate armed
	f.now += window / 2
	f.resume(3, 1) // cycle broken mid-window
	if rep := d.Check(); rep != nil {
		t.Fatalf("broken cycle reported: %+v", rep)
	}
	f.pause(3, 1) // re-formed: a new pause, so the clock restarts
	d.Check()
	f.now += window - 1
	if rep := d.Check(); rep != nil {
		t.Fatalf("re-formed cycle reported before a fresh full window: %+v", rep)
	}
	f.now += 1
	if rep := d.Check(); rep == nil {
		t.Fatal("re-formed cycle never reported")
	}
}

// TestDCFITQueueScopedEdges: BFC QPAUSE edges are scoped per physical
// queue — a QRESUME on one queue must not clear another queue's edge, and a
// cycle of per-queue pauses is detected like a class-level one.
func TestDCFITQueueScopedEdges(t *testing.T) {
	d, f := newFakeDCFIT()
	qpause := func(up, down topology.NodeID, q int) {
		f.send(up, down, flowcontrol.Message{Kind: flowcontrol.KindQueuePause, QueueID: q})
	}
	qresume := func(up, down topology.NodeID, q int) {
		f.send(up, down, flowcontrol.Message{Kind: flowcontrol.KindQueueResume, QueueID: q})
	}
	qpause(1, 2, 3)
	qpause(2, 3, 1)
	qpause(3, 1, 5)
	qresume(1, 2, 4) // different queue: edge (1,2,q3) must survive
	if n := liveEdges(d); n != 3 {
		t.Fatalf("edges = %d after unrelated-queue resume, want 3", n)
	}
	d.Check()
	f.now += window
	if rep := d.Check(); rep == nil || len(rep.Cycle) != 3 {
		t.Fatalf("per-queue pause cycle not reported (rep=%+v)", rep)
	}
}

// TestDCFITIgnoresNonPauseFeedback: credit, rate and queue-length feedback
// create no dependency edges — DCFIT is silent for CBFC and GFC by design.
func TestDCFITIgnoresNonPauseFeedback(t *testing.T) {
	d, f := newFakeDCFIT()
	for _, k := range []flowcontrol.Kind{
		flowcontrol.KindCredit, flowcontrol.KindStage, flowcontrol.KindQueue,
	} {
		f.send(1, 2, flowcontrol.Message{Kind: k})
	}
	if n := liveEdges(d); n != 0 {
		t.Fatalf("edges = %d from non-pause feedback, want 0", n)
	}
}

// TestDCFITTriggerInheritance: a pause delivered to a node whose own
// downstream is already paused continues that chain — the initial trigger
// propagates instead of a fresh one being minted per hop.
func TestDCFITTriggerInheritance(t *testing.T) {
	d, f := newFakeDCFIT()
	f.pause(2, 3) // node 3 pauses its upstream 2: trigger minted by 3
	f.pause(1, 2) // node 2 (itself paused) pauses 1: inherits 3's trigger
	e12, ok12 := edgeOf(d, 1, 2, -1)
	e23, ok23 := edgeOf(d, 2, 3, -1)
	if !ok12 || !ok23 {
		t.Fatal("edges missing")
	}
	if e12.tag != e23.tag {
		t.Fatalf("downstream edge minted its own trigger: %+v vs %+v", e12.tag, e23.tag)
	}
	// An unpaused node pausing someone mints fresh.
	f.pause(5, 6)
	e56, _ := edgeOf(d, 5, 6, -1)
	if e56.tag == e23.tag {
		t.Fatal("independent pause inherited an unrelated trigger")
	}
}

// TestDCFITRingAgreesWithGlobal races the two detectors on the real fig9
// deadlock ring under PFC: both must convict, with the same verdict kind,
// at onset times within a couple of windows of each other — DCFIT watching
// the feedback plane and the global detector watching buffer snapshots are
// observing the same standstill.
func TestDCFITRingAgreesWithGlobal(t *testing.T) {
	n, _ := buildRing(t, 2, pfcTestbed())
	g, d := NewDetector(n), NewDCFIT(n)
	poll(n, g.Check, d.Check)
	n.Run(100 * units.Millisecond)

	grep, drep := g.Deadlocked(), d.Deadlocked()
	if grep == nil {
		t.Fatal("global detector missed the ring deadlock")
	}
	if drep == nil {
		t.Fatal("DCFIT missed the ring deadlock")
	}
	if drep.Kind != CircularWait || grep.Kind != CircularWait {
		t.Fatalf("kinds: global %v, dcfit %v, want circular wait from both", grep.Kind, drep.Kind)
	}
	if len(drep.Cycle) < 3 {
		t.Fatalf("DCFIT cycle %v, want ≥ 3 channels", drep.Cycle)
	}
	diff := grep.At - drep.At
	if diff < 0 {
		diff = -diff
	}
	if tol := 2 * window; diff > tol {
		t.Errorf("onset disagreement: global %v vs dcfit %v (|Δ| = %v > %v)",
			grep.At, drep.At, diff, tol)
	}
}

// TestDCFITParentTieBreak pins which edge blocks a node when two became
// live at the same instant: the first in (Down, queue) order, whatever the
// delivery order or the node's port order. A pause delivered to that node
// next inherits that edge's trigger.
func TestDCFITParentTieBreak(t *testing.T) {
	// Node 2's port toward 4 comes before its port toward 3.
	d, f := newFakeDCFIT([2]topology.NodeID{1, 2}, [2]topology.NodeID{2, 4}, [2]topology.NodeID{2, 3})
	f.pause(2, 4) // mints tag 0
	f.pause(2, 3) // mints tag 1, same instant
	f.pause(1, 2)
	e12, _ := edgeOf(d, 1, 2, -1)
	if e23, _ := edgeOf(d, 2, 3, -1); e12.tag != e23.tag {
		t.Errorf("1→2 inherited tag %d, want 2→3's %d (lowest Down)", e12.tag, e23.tag)
	}

	d, f = newFakeDCFIT([2]topology.NodeID{1, 2}, [2]topology.NodeID{2, 3})
	qpause := func(up, down topology.NodeID, q int) {
		f.send(up, down, flowcontrol.Message{Kind: flowcontrol.KindQueuePause, QueueID: q})
	}
	qpause(2, 3, 5) // mints tag 0
	qpause(2, 3, 2) // mints tag 1, same instant
	qpause(1, 2, 0)
	e12, _ = edgeOf(d, 1, 2, 0)
	if e232, _ := edgeOf(d, 2, 3, 2); e12.tag != e232.tag {
		t.Errorf("1→2 inherited tag %d, want queue 2's %d (lowest queue)", e12.tag, e232.tag)
	}
}

// TestDCFITParallelLinks: two links join the same pair of switches (a
// library-built topology; the spec builders make none). A PAUSE on one and
// a RESUME on the other are two channels, so one edge stays live.
func TestDCFITParallelLinks(t *testing.T) {
	d, f := newFakeDCFIT([2]topology.NodeID{1, 2}, [2]topology.NodeID{1, 2})
	first, second := d.bases[1], d.bases[1]+1
	f.obs(first, flowcontrol.Message{Kind: flowcontrol.KindPause})
	f.obs(second, flowcontrol.Message{Kind: flowcontrol.KindResume})
	if n := liveEdges(d); n != 1 || !d.at(edge{first, -1}).live {
		t.Fatalf("live edges = %d (first link's live: %v), want the first link's alone",
			n, d.at(edge{first, -1}).live)
	}
}

// TestDCFITLiveCount: the live-edge count that lets a poll skip the walk
// equals the number of live flags at every poll and at the end of the fault
// matrix's ring run — one host per switch, critically loaded, under PFC and
// BFC — under every fault preset.
func TestDCFITLiveCount(t *testing.T) {
	for _, sc := range []struct {
		name    string
		factory flowcontrol.Factory
	}{{"PFC", pfcTestbed()}, {"BFC", flowcontrol.NewBFCQueues(0)}} {
		everLive := false
		for _, preset := range faults.PresetNames() {
			spec, err := faults.Preset(preset)
			if err != nil {
				t.Fatal(err)
			}
			topo := topology.RingHosts(3, 1, topology.DefaultLinkParams())
			plan, err := spec.Compile(topo)
			if err != nil {
				t.Fatal(err)
			}
			cfg := testbedConfig(sc.factory)
			cfg.Faults = plan.NewInjector(1)
			n, _ := buildRingOn(t, topo, 1, cfg)
			d := NewDCFIT(n)
			poll(n, func() *Report {
				if got, want := d.live, liveEdges(d); got != want {
					t.Fatalf("%s/%s at %v: live count %d, %d live flags", sc.name, preset, n.Now(), got, want)
				}
				everLive = everLive || d.live > 0
				return d.Check()
			})
			n.Run(60 * units.Millisecond)
			if got, want := d.live, liveEdges(d); got != want {
				t.Errorf("%s/%s: live count %d, %d live flags", sc.name, preset, got, want)
			}
		}
		if !everLive {
			t.Errorf("%s: no poll saw a live pause edge; the count went untested", sc.name)
		}
	}
}

// BenchmarkDCFITQuietCheck is a poll of DCFIT on a k=8 fat-tree with no live
// pause edge: the steady state of every pause-free run.
func BenchmarkDCFITQuietCheck(b *testing.B) {
	d := NewDCFIT(&fakeFeedbackNet{now: units.Millisecond, topo: topology.FatTree(8, topology.DefaultLinkParams())})
	b.ReportAllocs()
	for b.Loop() {
		if d.Check() != nil {
			b.Fatal("convicted")
		}
	}
}
