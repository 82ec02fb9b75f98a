package netsim

import (
	"context"
	"hash/fnv"
	"testing"

	"github.com/gfcsim/gfc/internal/routing"
	"github.com/gfcsim/gfc/internal/runner"
	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
)

// traceHash runs a congested 2:1 scenario and folds every trace record —
// queue changes, arrivals, deliveries, feedback emissions — into an
// FNV-1a hash. Two runs of the same configuration must produce the same
// event sequence in the same order, so the hashes must match exactly.
func traceHash(t testing.TB, flowSize units.Size) uint64 {
	return traceRun(t, flowSize, func(n *Network) { n.Run(2 * units.Millisecond) })
}

// traceRun is traceHash with the run to 2 ms left to the caller.
func traceRun(t testing.TB, flowSize units.Size, run func(*Network)) uint64 {
	h := fnv.New64a()
	mix := func(vs ...uint64) {
		var buf [8]byte
		for _, v := range vs {
			for i := range buf {
				buf[i] = byte(v >> (8 * i))
			}
			h.Write(buf[:])
		}
	}
	cfg := baseConfig(gfcFactory())
	cfg.Trace = &Trace{
		OnQueue: func(at units.Time, node topology.NodeID, port int, q units.Size) {
			mix(1, uint64(at), uint64(node), uint64(port), uint64(q))
		},
		OnArrival: func(at units.Time, node topology.NodeID, pkt *Packet) {
			mix(2, uint64(at), uint64(node), uint64(pkt.Flow.ID), uint64(pkt.Seq))
		},
		OnDeliver: func(at units.Time, f *Flow, pkt *Packet) {
			mix(4, uint64(at), uint64(f.ID), uint64(pkt.Seq))
		},
		OnFeedback: func(at units.Time, node topology.NodeID, port int) {
			mix(5, uint64(at), uint64(node), uint64(port))
		},
	}
	topo := topology.TwoToOne(topology.DefaultLinkParams())
	tab := routing.NewSPF(topo)
	n, err := New(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dst := topo.MustLookup("H3")
	for i, src := range []string{"H1", "H2"} {
		s := topo.MustLookup(src)
		path, err := tab.Path(s, dst, uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		f := &Flow{ID: i + 1, Src: s, Dst: dst, Size: flowSize, Path: path}
		if err := n.AddFlow(f, 0); err != nil {
			t.Fatal(err)
		}
	}
	run(n)
	return h.Sum64()
}

// TestTraceDeterminism is the regression guard for the event-core refactor:
// the pooled-event engine, the packet free-list and the per-kind event
// handlers must not perturb event ordering. The full trace of a run is hashed and
// compared against a fresh run of the identical configuration.
func TestTraceDeterminism(t *testing.T) {
	a := traceHash(t, 200*units.KB)
	b := traceHash(t, 200*units.KB)
	if a != b {
		t.Fatalf("same scenario, different traces: %#x vs %#x", a, b)
	}
	if c := traceHash(t, 150*units.KB); c == a {
		t.Fatalf("different workloads produced identical trace hash %#x", a)
	}
}

// TestTraceDeterminismUnderParallelRunner re-runs the same scenario on a
// multi-worker pool: concurrent share-nothing simulations (and their
// sync.Pool packet recycling) must still each reproduce the serial trace.
func TestTraceDeterminismUnderParallelRunner(t *testing.T) {
	want := traceHash(t, 200*units.KB)
	const copies = 8
	jobs := make([]runner.Job[uint64], copies)
	for i := range jobs {
		jobs[i] = func(context.Context) (uint64, error) {
			return traceHash(t, 200*units.KB), nil
		}
	}
	for _, r := range runner.RunWith(context.Background(), jobs, runner.Options[uint64]{Workers: 4}) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if r.Value != want {
			t.Fatalf("parallel run diverged: %#x, want %#x", r.Value, want)
		}
	}
}
