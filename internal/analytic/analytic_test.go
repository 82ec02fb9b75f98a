package analytic

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/gfcsim/gfc/internal/netsim"
	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
)

// ringInput is the baseline analysable scenario: the paper's 3-switch ring
// with factory-derived thresholds and a horizon past the progress warmup.
// ringInput is a ring under s with the conservative CBD verdict (cyclic, as
// the clockwise workload on it is); tests of the acyclic claims clear it.
func ringInput(s Scheme) Input {
	return Input{
		Topo:      topology.Ring(3, topology.DefaultLinkParams()),
		Scheme:    s,
		Cfg:       netsim.Config{BufferSize: 300 * units.KB},
		CBDCyclic: true,
		Duration:  10 * units.Millisecond,
	}
}

func mustPredict(t *testing.T, in Input) *Prediction {
	t.Helper()
	p, err := Predict(in)
	if err != nil {
		t.Fatalf("Predict(%v): %v", in.Scheme, err)
	}
	return p
}

var allSchemes = []Scheme{PFC, CBFC, GFCBuffer, GFCTime, GFCConceptual, BFC}

func TestPredictErrors(t *testing.T) {
	deadRing := topology.Ring(3, topology.DefaultLinkParams())
	for i := 0; i < deadRing.NumLinks(); i++ {
		deadRing.Link(topology.LinkID(i)).Failed = true
	}
	for _, tc := range []struct {
		name string
		mut  func(*Input)
		want string
	}{
		{"nil topology", func(in *Input) { in.Topo = nil }, "topology is required"},
		{"zero duration", func(in *Input) { in.Duration = 0 }, "must be positive"},
		{"negative duration", func(in *Input) { in.Duration = -1 }, "must be positive"},
		{"zero buffer", func(in *Input) { in.Cfg.BufferSize = 0 }, "buffer size is required"},
		{"unknown scheme", func(in *Input) { in.Scheme = "token-bucket" }, "unknown scheme"},
		{"no live links", func(in *Input) { in.Topo = deadRing }, "no live links"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := ringInput(PFC)
			tc.mut(&in)
			p, err := Predict(in)
			if err == nil {
				t.Fatalf("Predict = %+v, want error", p)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestPredictPFC(t *testing.T) {
	B := 300 * units.KB

	// Factory-derived thresholds: the envelope is the whole buffer and the
	// τ budget (derived) covers the actual latency exactly.
	p := mustPredict(t, ringInput(PFC))
	if p.MaxOccupancy != B {
		t.Errorf("derived envelope = %v, want buffer %v", p.MaxOccupancy, B)
	}
	if !p.Lossless {
		t.Error("derived thresholds not lossless")
	}
	if p.DeadlockFree {
		t.Error("deadlock-free on a cyclic CBD")
	}
	if p.Tau <= 0 {
		t.Errorf("Tau = %v, want positive", p.Tau)
	}

	// An explicit XOFF with generous headroom tightens the envelope below
	// the buffer and keeps the lossless claim.
	in := ringInput(PFC)
	in.Params.XOFF = 100 * units.KB
	p = mustPredict(t, in)
	if p.MaxOccupancy >= B || p.MaxOccupancy <= in.Params.XOFF {
		t.Errorf("XOFF envelope = %v, want in (%v, %v)", p.MaxOccupancy, in.Params.XOFF, B)
	}
	if !p.Lossless {
		t.Error("XOFF with C·τ headroom not lossless")
	}

	// XOFF at the buffer top leaves no reaction headroom: overshoot clamps
	// to the buffer and drops are possible.
	in.Params.XOFF = B
	if p = mustPredict(t, in); p.Lossless || p.MaxOccupancy != B {
		t.Errorf("XOFF=B: lossless=%v envelope=%v, want false/%v", p.Lossless, p.MaxOccupancy, B)
	}

	// A τ budget below equation (6)'s 7.4 µs leaves the actual feedback
	// latency unbudgeted.
	in = ringInput(PFC)
	in.Cfg.Tau = 1 * units.Microsecond
	if p = mustPredict(t, in); p.Lossless {
		t.Error("lossless despite a τ budget below the actual latency")
	}
	// A budget that covers the actual latency restores the claim.
	in.Cfg.Tau = 1 * units.Millisecond
	if p = mustPredict(t, in); !p.Lossless {
		t.Error("not lossless despite τ override covering the actual latency")
	}

	// CBD verdicts: only an acyclic graph makes PFC deadlock-free.
	in = ringInput(PFC)
	in.CBDCyclic = false
	if p = mustPredict(t, in); !p.DeadlockFree {
		t.Error("not deadlock-free on known-acyclic CBD")
	}
	if p.MinDelivered == 0 {
		t.Error("no progress floor on deadlock-free unfaulted run")
	}
	in.CBDCyclic = true
	if p = mustPredict(t, in); p.DeadlockFree || p.MinDelivered != 0 {
		t.Errorf("cyclic CBD: deadlock-free=%v floor=%v", p.DeadlockFree, p.MinDelivered)
	}
}

// TestPredictFaulted: with a fault injector attached every scheme falls back
// to the physical-buffer envelope, drops its lossless claim and its progress
// floor — forged or lost feedback voids any threshold-derived ceiling.
func TestPredictFaulted(t *testing.T) {
	B := 300 * units.KB
	for _, s := range allSchemes {
		in := ringInput(s)
		in.Faulted = true
		in.CBDCyclic = false // acyclic claim must not survive faults
		p := mustPredict(t, in)
		if p.MaxOccupancy != B {
			t.Errorf("%v faulted envelope = %v, want buffer %v", s, p.MaxOccupancy, B)
		}
		if p.Lossless {
			t.Errorf("%v lossless under faults", s)
		}
		if p.MinDelivered != 0 {
			t.Errorf("%v progress floor %v under faults", s, p.MinDelivered)
		}
		switch s {
		case GFCBuffer, GFCTime:
			if !p.DeadlockFree {
				t.Errorf("%v not deadlock-free (stage/rate floor holds under faults)", s)
			}
		default:
			if p.DeadlockFree {
				t.Errorf("%v deadlock-free under faults", s)
			}
		}
	}
}

func TestPredictGFCBuffer(t *testing.T) {
	p := mustPredict(t, ringInput(GFCBuffer))
	if !p.DeadlockFree || !p.Lossless {
		t.Errorf("derived GFC-buffer: deadlock-free=%v lossless=%v", p.DeadlockFree, p.Lossless)
	}
	if p.FloorRate <= 0 {
		t.Errorf("FloorRate = %v, want positive (deepest stage rate)", p.FloorRate)
	}
	if p.MinDelivered == 0 {
		t.Error("no progress floor")
	}
	// Deadlock freedom needs no CBD verdict: cyclic changes nothing.
	in := ringInput(GFCBuffer)
	if p = mustPredict(t, in); !p.DeadlockFree {
		t.Error("not deadlock-free on cyclic CBD")
	}
	// A B1 at B_m leaves no slowdown room before the ceiling: unsafe.
	in = ringInput(GFCBuffer)
	in.Params.Bm = 280 * units.KB
	in.Params.B1 = 280 * units.KB
	if p = mustPredict(t, in); p.Lossless {
		t.Error("lossless despite B1 = B_m")
	}
	// B_m too close to the buffer: the 4-MTU stage headroom does not fit.
	in = ringInput(GFCBuffer)
	in.Params.Bm = 299 * units.KB
	if p = mustPredict(t, in); p.Lossless {
		t.Error("lossless despite B_m + 4·MTU > B")
	}
}

func TestPredictGFCTime(t *testing.T) {
	p := mustPredict(t, ringInput(GFCTime))
	if !p.DeadlockFree || !p.Lossless {
		t.Errorf("derived GFC-time: deadlock-free=%v lossless=%v", p.DeadlockFree, p.Lossless)
	}
	if p.FloorRate != 8*units.Kbps {
		t.Errorf("FloorRate = %v, want the 8 Kb/s rate-adjuster minimum", p.FloorRate)
	}
	// An oversized explicit B0 exceeds the safe bound.
	in := ringInput(GFCTime)
	in.Params.B0 = 299 * units.KB
	if p = mustPredict(t, in); p.Lossless {
		t.Error("lossless despite B0 above the time-based bound")
	}
}

func TestPredictGFCConceptual(t *testing.T) {
	p := mustPredict(t, ringInput(GFCConceptual))
	if !p.DeadlockFree || !p.Lossless {
		t.Errorf("derived conceptual: deadlock-free=%v lossless=%v", p.DeadlockFree, p.Lossless)
	}
	if p.MaxOccupancy != 300*units.KB {
		t.Errorf("envelope = %v, want clamp to buffer (B_m defaults to B)", p.MaxOccupancy)
	}
	// B0 above B_m − 4Cτ: the zero-rate point is reachable, so deadlock
	// freedom falls back to the CBD verdict (here: cyclic).
	in := ringInput(GFCConceptual)
	in.Params.B0 = 299 * units.KB
	p = mustPredict(t, in)
	if p.Lossless || p.DeadlockFree {
		t.Errorf("oversized B0: lossless=%v deadlock-free=%v", p.Lossless, p.DeadlockFree)
	}
	in.CBDCyclic = false
	if p = mustPredict(t, in); !p.DeadlockFree {
		t.Error("oversized B0 on acyclic CBD not deadlock-free")
	}
	// A tight B_m with headroom below it keeps both claims and bounds the
	// envelope by B_m plus one feedback latency of arrivals.
	in = ringInput(GFCConceptual)
	in.Params.Bm = 200 * units.KB
	p = mustPredict(t, in)
	if !p.Lossless || !p.DeadlockFree {
		t.Errorf("tight B_m: lossless=%v deadlock-free=%v", p.Lossless, p.DeadlockFree)
	}
	if p.MaxOccupancy <= in.Params.Bm || p.MaxOccupancy >= 300*units.KB {
		t.Errorf("tight B_m envelope = %v, want in (%v, 300 KB)", p.MaxOccupancy, in.Params.Bm)
	}
}

func TestPredictCBFCAndBFC(t *testing.T) {
	B := 300 * units.KB
	for _, s := range []Scheme{CBFC, BFC} {
		p := mustPredict(t, ringInput(s))
		if p.MaxOccupancy != B {
			t.Errorf("%v envelope = %v, want buffer", s, p.MaxOccupancy)
		}
		if !p.Lossless {
			t.Errorf("%v not lossless unfaulted", s)
		}
		if p.DeadlockFree || p.FloorRate != 0 {
			t.Errorf("%v: deadlock-free=%v floor-rate=%v on cyclic CBD", s, p.DeadlockFree, p.FloorRate)
		}
		in := ringInput(s)
		in.CBDCyclic = false
		if p = mustPredict(t, in); !p.DeadlockFree {
			t.Errorf("%v not deadlock-free on acyclic CBD", s)
		}
	}
	// BFC, like PFC, additionally needs the τ budget to cover the actual
	// feedback latency.
	in := ringInput(BFC)
	in.Cfg.Tau = 1 * units.Microsecond
	if p := mustPredict(t, in); p.Lossless {
		t.Error("BFC lossless despite a τ budget below the actual latency")
	}
}

func TestPredictConservation(t *testing.T) {
	in := ringInput(GFCBuffer)
	p := mustPredict(t, in)
	// 3 hosts × (10 Gb/s × 10 ms + one MTU).
	perHost := units.BytesIn(10*units.Gbps, in.Duration) + 1500*units.Byte
	if want := 3 * perHost; p.MaxDelivered != want {
		t.Errorf("MaxDelivered = %v, want %v", p.MaxDelivered, want)
	}
	// Failing one host's attachment link removes its share.
	in.Topo = topology.Ring(3, topology.DefaultLinkParams())
	h1 := in.Topo.MustLookup("H1")
	for _, at := range in.Topo.Ports(h1) {
		at.Link.Failed = true
	}
	if p = mustPredict(t, in); p.MaxDelivered != 2*perHost {
		t.Errorf("MaxDelivered with failed host link = %v, want %v", p.MaxDelivered, 2*perHost)
	}
}

func TestPredictWarmupFloor(t *testing.T) {
	in := ringInput(GFCBuffer)
	in.Duration = 500 * units.Microsecond // below the 1 ms warmup
	if p := mustPredict(t, in); p.MinDelivered != 0 {
		t.Errorf("progress floor %v asserted inside warmup", p.MinDelivered)
	}
}

// TestPredictDeterministic: Predict is pure — identical inputs produce
// structurally identical predictions, across schemes and repeated calls.
func TestPredictDeterministic(t *testing.T) {
	for _, s := range allSchemes {
		a := mustPredict(t, ringInput(s))
		for i := 0; i < 3; i++ {
			if b := mustPredict(t, ringInput(s)); !reflect.DeepEqual(a, b) {
				t.Fatalf("%v call %d: %+v != %+v", s, i, b, a)
			}
		}
	}
}

// TestPredictMonotoneBuffer: growing the buffer (factory-derived thresholds)
// never shrinks the occupancy envelope and never weakens a lossless or
// deadlock-free claim, on randomly sampled buffer ladders.
func TestPredictMonotoneBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	topos := map[string]*topology.Topology{
		"ring":     topology.Ring(3, topology.DefaultLinkParams()),
		"fat-tree": topology.FatTree(4, topology.DefaultLinkParams()),
	}
	for name, topo := range topos {
		for _, s := range allSchemes {
			buf := units.Size(20*units.KB + units.Size(rng.Intn(int(10*units.KB))))
			prev := mustPredict(t, Input{
				Topo: topo, Scheme: s, Duration: 10 * units.Millisecond,
				Cfg: netsim.Config{BufferSize: buf},
			})
			for step := 0; step < 8; step++ {
				buf += units.Size(1 + rng.Intn(int(100*units.KB)))
				p := mustPredict(t, Input{
					Topo: topo, Scheme: s, Duration: 10 * units.Millisecond,
					Cfg: netsim.Config{BufferSize: buf},
				})
				if p.MaxOccupancy < prev.MaxOccupancy {
					t.Errorf("%s/%v: envelope shrank %v → %v as buffer grew to %v",
						name, s, prev.MaxOccupancy, p.MaxOccupancy, buf)
				}
				if prev.Lossless && !p.Lossless {
					t.Errorf("%s/%v: lossless claim lost as buffer grew to %v", name, s, buf)
				}
				if prev.DeadlockFree && !p.DeadlockFree {
					t.Errorf("%s/%v: deadlock-free claim lost as buffer grew to %v", name, s, buf)
				}
				if p.MaxDelivered != prev.MaxDelivered {
					t.Errorf("%s/%v: throughput bound moved with buffer size", name, s)
				}
				prev = p
			}
		}
	}
}

// TestPredictMonotoneRate: raising the line rate never decreases the
// aggregate throughput bound.
func TestPredictMonotoneRate(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, s := range allSchemes {
		cap := units.Rate(1*units.Gbps) + units.Rate(rng.Intn(int(1*units.Gbps)))
		mk := func(c units.Rate) *Prediction {
			return mustPredict(t, Input{
				Topo:   topology.Ring(3, topology.LinkParams{Capacity: c, Delay: 1 * units.Microsecond}),
				Scheme: s, Duration: 10 * units.Millisecond,
				Cfg: netsim.Config{BufferSize: 300 * units.KB},
			})
		}
		prev := mk(cap)
		for step := 0; step < 8; step++ {
			cap += units.Rate(1 + rng.Intn(int(5*units.Gbps)))
			p := mk(cap)
			if p.MaxDelivered < prev.MaxDelivered {
				t.Errorf("%v: throughput bound shrank %v → %v as line rate grew to %v",
					s, prev.MaxDelivered, p.MaxDelivered, cap)
			}
			prev = p
		}
	}
}
