package netsim

import (
	"context"
	"errors"
	"strings"
	"testing"

	"github.com/gfcsim/gfc/internal/metrics"
	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
)

// governedNet builds a small two-host network with one unbounded flow, the
// canvas for governor tests.
func governedNet(t *testing.T, cfg Config) *Network {
	t.Helper()
	topo := topology.Linear(2, topology.DefaultLinkParams())
	n, err := New(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fl := spfFlow(t, topo, 1, "H1", "H2", 0)
	if err := n.AddFlow(fl, 0); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestRunBoundedUnbudgetedMatchesRun(t *testing.T) {
	a := governedNet(t, baseConfig(gfcFactory()))
	b := governedNet(t, baseConfig(gfcFactory()))
	a.Run(5 * units.Millisecond)
	if err := b.RunBounded(context.Background(), 5*units.Millisecond, Budget{}); err != nil {
		t.Fatalf("unbudgeted RunBounded: %v", err)
	}
	if a.TotalDelivered() != b.TotalDelivered() || a.Now() != b.Now() ||
		a.Engine().Fired() != b.Engine().Fired() {
		t.Fatalf("RunBounded diverged from Run: delivered %v/%v, now %v/%v, fired %d/%d",
			a.TotalDelivered(), b.TotalDelivered(), a.Now(), b.Now(),
			a.Engine().Fired(), b.Engine().Fired())
	}
}

func TestEventBudgetTrips(t *testing.T) {
	n := governedNet(t, baseConfig(gfcFactory()))
	err := n.RunBounded(context.Background(), units.Never, Budget{
		MaxEvents: 10_000, CheckEvery: 64,
	})
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *RunError", err)
	}
	if re.Reason != StopEventBudget {
		t.Fatalf("reason = %v, want event budget", re.Reason)
	}
	if re.Snapshot == nil {
		t.Fatal("no flight-recorder snapshot attached")
	}
	if re.Snapshot.Events < 10_000 || re.Snapshot.Events >= 10_000+64 {
		t.Fatalf("tripped after %d events, want within one check interval of 10000", re.Snapshot.Events)
	}
	if re.Snapshot.Delivered == 0 {
		t.Fatal("snapshot shows no delivery despite an active line-rate flow")
	}
}

func TestWatchdogTripsOnLivelock(t *testing.T) {
	n := governedNet(t, baseConfig(gfcFactory()))
	// A zero-delay self-rescheduling event: sim time freezes while events
	// fire — the exact signature of an event-loop livelock.
	var spin func(int32)
	eng := n.Engine()
	spin = func(int32) { eng.After(0, spin, 0) }
	eng.At(units.Millisecond, spin, 0)
	err := n.RunBounded(context.Background(), 10*units.Millisecond, Budget{
		StallEvents: 50_000, CheckEvery: 256,
	})
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("livelocked run returned %v, want *RunError", err)
	}
	if re.Reason != StopStalled {
		t.Fatalf("reason = %v, want stalled", re.Reason)
	}
	if got := re.Snapshot.At; got != units.Millisecond {
		t.Fatalf("stall detected at t=%v, livelock pinned the clock at 1ms", got)
	}
	if !strings.Contains(err.Error(), "stalled") {
		t.Fatalf("error text %q does not name the stall", err)
	}
}

func TestWatchdogIgnoresSlowProgress(t *testing.T) {
	// A 1ns-step self-rescheduling chain fires a huge number of events,
	// delivers nothing, but keeps sim time crawling forward: slow, not
	// livelocked. The watchdog must not false-positive on it.
	topo := topology.Linear(2, topology.DefaultLinkParams())
	n, err := New(topo, baseConfig(gfcFactory()))
	if err != nil {
		t.Fatal(err)
	}
	eng := n.Engine()
	var crawl func(int32)
	crawl = func(int32) {
		if eng.Now() < 200*units.Microsecond {
			eng.After(1, crawl, 0)
		}
	}
	eng.At(0, crawl, 0)
	if err := n.RunBounded(context.Background(), units.Millisecond, Budget{
		StallEvents: 1000, CheckEvery: 16,
	}); err != nil {
		t.Fatalf("slow-but-progressing run tripped the watchdog: %v", err)
	}
}

func TestWallBudgetTrips(t *testing.T) {
	n := governedNet(t, baseConfig(gfcFactory()))
	// An unbounded livelock chain guarantees the run cannot end on its
	// own; only the wall clock stops it.
	eng := n.Engine()
	var spin func(int32)
	spin = func(int32) { eng.After(0, spin, 0) }
	eng.At(0, spin, 0)
	err := n.RunBounded(context.Background(), units.Never, Budget{MaxWall: 20e6}) // 20ms
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *RunError", err)
	}
	if re.Reason != StopWallBudget {
		t.Fatalf("reason = %v, want wall budget", re.Reason)
	}
}

func TestCancellation(t *testing.T) {
	n := governedNet(t, baseConfig(gfcFactory()))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := n.RunBounded(ctx, 10*units.Millisecond, Budget{CheckEvery: 64})
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *RunError", err)
	}
	if re.Reason != StopCancelled {
		t.Fatalf("reason = %v, want cancelled", re.Reason)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatal("RunError does not unwrap to context.Canceled")
	}
	if n.Now() >= 10*units.Millisecond {
		t.Fatal("cancelled run still reached the horizon")
	}
}

func TestGovernorDetaches(t *testing.T) {
	n := governedNet(t, baseConfig(gfcFactory()))
	if err := n.RunBounded(context.Background(), units.Millisecond, Budget{CheckEvery: 64}); err != nil {
		t.Fatal(err)
	}
	// After RunBounded returns, a plain Run must proceed unhindered even
	// though an earlier budget would long since have tripped.
	n.Run(20 * units.Millisecond)
	if n.Now() != 20*units.Millisecond {
		t.Fatalf("post-governor Run stopped at %v", n.Now())
	}
}

func TestSnapshotCensusAndMetrics(t *testing.T) {
	// Congest a 2-to-1 merge so the snapshot has live packets and occupied
	// channels to report, with a registry bound for high-water marks.
	topo := topology.TwoToOne(topology.DefaultLinkParams())
	cfg := baseConfig(gfcFactory())
	reg := metrics.New(metrics.Options{})
	cfg.Metrics = reg
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
	s := n.Snapshot()
	if s.At != 5*units.Millisecond {
		t.Fatalf("snapshot at %v", s.At)
	}
	if s.Packets.Total() == 0 {
		t.Fatal("census found no live packets in a congested merge")
	}
	if len(s.Channels) == 0 {
		t.Fatal("no non-idle channels reported")
	}
	var sawHighWater bool
	for _, ch := range s.Channels {
		if ch.HighWater > 0 {
			sawHighWater = true
		}
		if ch.Occupancy == 0 && ch.QueuedBytes == 0 {
			t.Fatalf("idle channel %s/%d in snapshot", ch.Node, ch.Port)
		}
	}
	if !sawHighWater {
		t.Fatal("metrics-bound snapshot carries no high-water marks")
	}
	out := s.String()
	for _, want := range []string{"flight recorder:", "live packets:", "occupancy="} {
		if !strings.Contains(out, want) {
			t.Fatalf("snapshot rendering missing %q:\n%s", want, out)
		}
	}
}

func TestHeapBudgetTrips(t *testing.T) {
	n := governedNet(t, baseConfig(gfcFactory()))
	// A livelock chain keeps events firing forever; a 1-byte heap budget
	// trips on the first sampled check (tick 0 is always sampled).
	eng := n.Engine()
	var spin func(int32)
	spin = func(int32) { eng.After(0, spin, 0) }
	eng.At(0, spin, 0)
	err := n.RunBounded(context.Background(), units.Never, Budget{
		MaxHeap: 1, CheckEvery: 64,
	})
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *RunError", err)
	}
	if re.Reason != StopHeapBudget {
		t.Fatalf("reason = %v, want heap budget", re.Reason)
	}
	if re.Snapshot == nil {
		t.Fatal("no flight-recorder snapshot attached")
	}
	if !strings.Contains(re.Error(), "heap budget") {
		t.Fatalf("error text %q", re.Error())
	}
}

func TestHeapBudgetGenerousDoesNotTrip(t *testing.T) {
	n := governedNet(t, baseConfig(gfcFactory()))
	if err := n.RunBounded(context.Background(), units.Millisecond, Budget{
		MaxHeap: 64 << 30, CheckEvery: 64,
	}); err != nil {
		t.Fatalf("64 GiB heap budget tripped on a 2-host run: %v", err)
	}
}

func TestSnapshotChannelAccounting(t *testing.T) {
	// On any snapshot, shown + truncated must equal the non-idle total, and
	// a dump under the cap must not be marked truncated.
	topo := topology.TwoToOne(topology.DefaultLinkParams())
	n, err := New(topo, baseConfig(gfcFactory()))
	if err != nil {
		t.Fatal(err)
	}
	for i, src := range []string{"H1", "H2"} {
		if err := n.AddFlow(spfFlow(t, topo, i+1, src, "H3", 0), 0); err != nil {
			t.Fatal(err)
		}
	}
	n.Run(5 * units.Millisecond)
	s := n.Snapshot()
	if s.ChannelsNonIdle == 0 {
		t.Fatal("congested merge reports zero non-idle channels")
	}
	if got := len(s.Channels) + s.ChannelsTruncated; got != s.ChannelsNonIdle {
		t.Fatalf("shown %d + truncated %d != non-idle %d",
			len(s.Channels), s.ChannelsTruncated, s.ChannelsNonIdle)
	}
	if s.ChannelsNonIdle <= maxSnapshotChannels && s.ChannelsTruncated != 0 {
		t.Fatalf("under-cap snapshot claims %d truncated channels", s.ChannelsTruncated)
	}
	// A capped snapshot renders its accounting; force one by shrinking the
	// comparison instead of building a huge net: verify the String path on
	// a synthetic over-cap snapshot.
	big := &Snapshot{ChannelsNonIdle: 100, ChannelsTruncated: 36}
	big.Channels = make([]ChannelDump, maxSnapshotChannels)
	out := big.String()
	if !strings.Contains(out, "36 more non-idle channels (64 of 100 shown)") {
		t.Fatalf("truncation accounting missing from rendering:\n%s", out)
	}
}
