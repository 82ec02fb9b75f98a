package deadlock

import (
	"testing"

	"github.com/gfcsim/gfc/internal/cbd"
	"github.com/gfcsim/gfc/internal/netsim"
	"github.com/gfcsim/gfc/internal/units"
)

// chainStall builds the lost-RESUME shape: buffer 1→2 is occupied and
// stalled, waiting at rate zero on the egress toward node 3; the holder of
// that backpressure — ingress 2→3 — is present in the snapshot but empty.
// No cycle exists, so only the wedge rule can fire. The returned fake is at
// now = 100 ms with all timestamps at 1 ms, far beyond any window.
func chainStall() *fakeNet {
	topo := fakeTopo()
	return &fakeNet{
		now:  100 * units.Millisecond,
		topo: topo,
		states: []netsim.IngressState{
			{
				Ch:            port(topo, 2, 1),
				Occupancy:     800 * units.KB,
				OccupiedSince: units.Millisecond,
				Waits:         []netsim.Wait{{Ch: port(topo, 3, 2)}},
			},
			{
				Ch:           port(topo, 3, 2),
				Occupancy:    0,
				LastDepartAt: units.Millisecond,
			},
		},
	}
}

// TestCheckReportsWedgedChannel is the positive control for the
// fault-induced stall: a zero-rate hold whose downstream holder has been
// empty for a full window is a lost release signal, and must be reported as
// a wedged channel (not a circular wait).
func TestCheckReportsWedgedChannel(t *testing.T) {
	d := NewDetector(chainStall())
	rep := d.Check()
	if rep == nil {
		t.Fatal("wedged chain not reported")
	}
	if rep.Kind != WedgedChannel {
		t.Fatalf("Kind = %v, want wedged-channel", rep.Kind)
	}
	if rep.Wedged == nil {
		t.Fatal("Wedged detail missing")
	}
	want := cbd.Channel{From: 1, To: 2}
	if rep.Wedged.Ingress != want || rep.Wedged.Via != 3 {
		t.Fatalf("Wedged = %+v, want ingress %v via 3", rep.Wedged, want)
	}
	if rep.Cycle != nil {
		t.Fatalf("wedge report carries a cycle: %v", rep.Cycle)
	}
	// Detection latches like the cycle path does.
	if again := d.Check(); again != rep {
		t.Fatal("second Check did not return the latched report")
	}
}

// TestWedgeRequiresEmptyHolder: while the downstream holder still holds
// bytes the backpressure is legitimate (the buffer really is protecting
// itself), so no wedge may be reported however long the upstream stall.
func TestWedgeRequiresEmptyHolder(t *testing.T) {
	f := chainStall()
	f.states[1].Occupancy = 900 * units.KB
	// Keep the holder itself out of the stalled set (it is draining),
	// otherwise the scenario is just a stalled chain awaiting progress.
	f.states[1].Waits = []netsim.Wait{{Ch: port(f.topo, 4, 3), Rate: 5 * units.Gbps}}
	if rep := NewDetector(f).Check(); rep != nil {
		t.Fatalf("occupied holder reported as wedge: %+v", rep)
	}
}

// TestWedgeRequiresIdleHolder: a holder that drained recently is inside the
// feedback-latency transient — the release signal may still be in flight —
// so the wedge verdict must wait out a full window of holder idleness.
func TestWedgeRequiresIdleHolder(t *testing.T) {
	f := chainStall()
	f.states[1].LastDepartAt = f.now - units.Millisecond // < default 5 ms window
	if rep := NewDetector(f).Check(); rep != nil {
		t.Fatalf("recently active holder reported as wedge: %+v", rep)
	}
}

// TestWedgeSkipsMissingHolder: a wait whose downstream buffer is not in the
// snapshot (a host-facing egress) has no observable holder, so the rule
// cannot conclude anything and must stay silent.
func TestWedgeSkipsMissingHolder(t *testing.T) {
	f := chainStall()
	f.states = f.states[:1] // drop the holder's state entirely
	if rep := NewDetector(f).Check(); rep != nil {
		t.Fatalf("missing holder reported as wedge: %+v", rep)
	}
}

// TestWedgeExcludesAdminDownWait: the flap exclusion applies to wedges as it
// does to cycles — a zero-rate wait on a down link is an outage, and the
// buffer is not considered stalled at all.
func TestWedgeExcludesAdminDownWait(t *testing.T) {
	f := chainStall()
	f.states[0].Waits[0].Down = true
	if rep := NewDetector(f).Check(); rep != nil {
		t.Fatalf("down-link wait reported as wedge: %+v", rep)
	}
}

// TestWedgeRequiresZeroRate: any positive permitted rate — however small —
// means the hold is not permanent (the GFC regime); the buffer is excluded
// from the stalled set and no wedge exists.
func TestWedgeRequiresZeroRate(t *testing.T) {
	f := chainStall()
	f.states[0].Waits[0].Rate = 1
	if rep := NewDetector(f).Check(); rep != nil {
		t.Fatalf("positive-rate wait reported as wedge: %+v", rep)
	}
}
