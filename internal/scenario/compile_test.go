package scenario

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/gfcsim/gfc/internal/cbd"
	"github.com/gfcsim/gfc/internal/flowcontrol"
	"github.com/gfcsim/gfc/internal/fluid"
	"github.com/gfcsim/gfc/internal/metrics"
	"github.com/gfcsim/gfc/internal/netsim"
	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
	"github.com/gfcsim/gfc/internal/workload"
)

// probeEnv is a flowcontrol.Env that records instead of simulating: emitted
// messages and timer delays are what a threshold probe reads back.
type probeEnv struct {
	msgs   []flowcontrol.Message
	delays []units.Time
}

func (e *probeEnv) Now() units.Time                            { return 0 }
func (e *probeEnv) After(d units.Time, _ func(int32), _ int32) { e.delays = append(e.delays, d) }
func (e *probeEnv) Emit(_ int, m flowcontrol.Message)          { e.msgs = append(e.msgs, m) }

// rootCause unwraps err to its innermost error — the flowcontrol bank's,
// under whatever channel prefix the backend wrapped it in.
func rootCause(err error) string {
	for {
		next := errors.Unwrap(err)
		if next == nil {
			return err.Error()
		}
		err = next
	}
}

// TestBackendsInstallSameCeilings is the regression test for the fluid
// backend binding its registry without the theorem ceilings: both backends
// must install the same ceiling on every channel, and a GFC scheme must have
// one on every switch channel.
func TestBackendsInstallSameCeilings(t *testing.T) {
	for _, fc := range []FC{GFCBuf, GFCTime} {
		t.Run(string(fc), func(t *testing.T) {
			spec, _ := Get("ring-steady-gfcbuf")
			spec.Scheme.FC = fc
			preg, freg := metrics.New(metrics.Options{}), metrics.New(metrics.Options{})
			psim, err := Build(spec, &Overrides{Metrics: preg})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := (FluidBackend{}).Build(spec, &Overrides{Metrics: freg}); err != nil {
				t.Fatal(err)
			}
			if p, f := preg.Summary().Channels, freg.Summary().Channels; p != f {
				t.Fatalf("layouts differ: packet %d channels, fluid %d", p, f)
			}
			topo := psim.Topo
			for n := 0; n < topo.NumNodes(); n++ {
				node := topo.Node(topology.NodeID(n))
				for _, at := range topo.Ports(node.ID) {
					idx := preg.ChannelIndex(node.ID, at.Port)
					from := topo.Node(at.Peer).Name
					if p, f := preg.Ceiling(idx), freg.Ceiling(idx); p != f {
						t.Errorf("%s<-%s: packet ceiling %v, fluid ceiling %v", node.Name, from, p, f)
					} else if p == 0 && node.Kind != topology.Host {
						t.Errorf("%s<-%s: switch channel has no ceiling", node.Name, from)
					}
				}
			}
		})
	}
}

// TestFluidRunnerHonoursWallBudget is the regression test for the fluid
// runner dropping its budget argument: a blown wall budget (caller-supplied
// or from the spec's limits block) and a cancelled context both end the run
// with the packet engine's structured verdict.
func TestFluidRunnerHonoursWallBudget(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	limited, _ := Get("ring-steady-gfcbuf")
	limited.Limits = &LimitsSpec{MaxWallMs: 1}
	limited.Run.DurationNs = 10 * units.Second // ~20 M steps: far beyond 1 ms of wall time
	limited.Sim.FluidStepNs = 500
	plain, _ := Get("ring-steady-gfcbuf")
	for _, tc := range []struct {
		name   string
		spec   Spec
		ctx    context.Context
		extra  netsim.Budget
		reason netsim.StopReason
	}{
		{"caller budget", plain, context.Background(), netsim.Budget{MaxWall: time.Nanosecond}, netsim.StopWallBudget},
		{"spec limits", limited, context.Background(), netsim.Budget{}, netsim.StopWallBudget},
		{"cancelled", plain, cancelled, netsim.Budget{}, netsim.StopCancelled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.spec.Run.Analytic = true
			r, err := (FluidBackend{}).Build(tc.spec, nil)
			if err != nil {
				t.Fatal(err)
			}
			res, err := r.RunBounded(tc.ctx, tc.extra)
			var re *netsim.RunError
			if !errors.As(err, &re) || re.Reason != tc.reason {
				t.Fatalf("RunBounded error = %v, want *netsim.RunError with reason %v", err, tc.reason)
			}
			if res == nil || res.Stopped != re || res.End >= tc.spec.Run.DurationNs {
				t.Fatalf("partial result = %+v, want Stopped set and End short of the horizon", res)
			}
			if (tc.reason == netsim.StopCancelled) != errors.Is(err, context.Canceled) {
				t.Errorf("errors.Is(err, context.Canceled) = %v for reason %v", errors.Is(err, context.Canceled), tc.reason)
			}
			if res.Analytic == nil || res.Analytic.Err != nil {
				t.Errorf("stopped run's analytic check = %+v, want attached and clean (no progress floor)", res.Analytic)
			}
			_ = re.Error() // must not need a packet-engine snapshot
		})
	}
}

// TestSingleResolution compares the three consumers of a compiled scenario
// channel by channel: the controller the packet network wires (the compiled
// factory on netsim's ChannelParams, plus the ceilings the built network
// actually installed), the fluid.Mapping the fluid compiler built, and what
// analytic.Predict reasoned with. Rows whose thresholds are invalid must fail
// in both backends with the factory's own message.
func TestSingleResolution(t *testing.T) {
	type row struct {
		fc      FC
		preset  string
		params  FCParams
		wantErr string // "" = whatever both backends agree on
	}
	var rows []row
	for _, fc := range []FC{PFC, GFCBuf, GFCTime, GFCConceptual} {
		for _, preset := range []string{"testbed", "sim", ""} {
			rows = append(rows, row{fc: fc, preset: preset})
		}
	}
	rows = append(rows,
		row{PFC, "", FCParams{XOFF: 299 * units.KB, XON: 290 * units.KB}, "headroom"},
		row{GFCBuf, "", FCParams{B1: 293 * units.KB, Bm: 294 * units.KB}, "exceeds safe bound"},
		row{GFCTime, "", FCParams{B0: 294 * units.KB, Bm: 294 * units.KB}, "needs 0 < B0"},
		row{GFCConceptual, "", FCParams{B0: 300 * units.KB}, "needs 0 < B0"},
	)
	for _, r := range rows {
		for _, capacity := range []units.Rate{10 * units.Gbps, 40 * units.Gbps} {
			r, capacity := r, capacity
			name := fmt.Sprintf("%s/preset=%s/%v", r.fc, r.preset, capacity)
			if r.wantErr != "" {
				name = fmt.Sprintf("%s/invalid/%v", r.fc, capacity)
			}
			t.Run(name, func(t *testing.T) {
				spec := twoToOne(r.fc)
				spec.Scheme.Preset, spec.Scheme.Params = r.preset, r.params
				spec.Topology.CapacityBps = capacity
				if r.preset == "" {
					spec.Sim.BufferBytes = 300 * units.KB
				}
				preg, freg := metrics.New(metrics.Options{}), metrics.New(metrics.Options{})
				psim, perr := Build(spec, &Overrides{Metrics: preg})
				frun, ferr := (FluidBackend{}).Build(spec, &Overrides{Metrics: freg})
				if perr != nil || ferr != nil {
					if perr == nil || ferr == nil || rootCause(perr) != rootCause(ferr) {
						t.Fatalf("backends disagree on validity:\n packet: %v\n fluid:  %v", perr, ferr)
					}
					if !strings.HasPrefix(rootCause(perr), "flowcontrol: ") || !strings.Contains(rootCause(perr), r.wantErr) {
						t.Fatalf("error %q, want the flowcontrol factory's mentioning %q", rootCause(perr), r.wantErr)
					}
					return
				}
				if r.wantErr != "" {
					t.Fatalf("built, want an error mentioning %q", r.wantErr)
				}
				compareResolution(t, psim, frun.(*fluidSim), preg, freg)
			})
		}
	}
}

func compareResolution(t *testing.T, psim *Sim, fsim *fluidSim, preg, freg *metrics.Registry) {
	pred, err := psim.Predict()
	if err != nil {
		t.Fatal(err)
	}
	if fpred, err := fsim.predict(); err != nil || !reflect.DeepEqual(pred, fpred) {
		t.Errorf("predictions differ: packet %+v, fluid %+v (%v)", pred, fpred, err)
	}
	for idx := 0; idx < preg.Summary().Channels; idx++ {
		if p, f := preg.Ceiling(idx), freg.Ceiling(idx); p != f {
			t.Errorf("channel %d: packet ceiling %v, fluid ceiling %v", idx, p, f)
		}
	}
	// bank wires what netsim.New wires on ch into a two-channel bank on a
	// recording env: the receiver on channel 0, the sender on channel 1.
	bank := func(ch fluid.NetChannel) (flowcontrol.Bank, *probeEnv) {
		link := psim.Topo.Ports(ch.Node)[ch.Port].Link
		env := &probeEnv{}
		b := psim.cfg.FlowControl(env, 2)
		if err := b.Wire(0, 1, psim.cfg.ChannelParams(link, topology.Switch)); err != nil {
			t.Fatalf("wiring a built channel: %v", err)
		}
		return b, env
	}
	for _, ch := range fsim.netcfg.Channels {
		if ch.Host {
			continue
		}
		ceil := preg.Ceiling(preg.ChannelIndex(ch.Node, ch.Port))
		switch m := ch.Mapping.(type) {
		case *fluid.OnOff:
			// The receiver must pause exactly at XOFF and resume exactly
			// at XON.
			b, env := bank(ch)
			b.OnArrival(0, 0, 1, m.XOFF-1)
			if len(env.msgs) != 0 {
				t.Errorf("packet PFC paused below the fluid XOFF %v", m.XOFF)
			}
			b.OnArrival(0, 0, 1, m.XOFF)
			b.OnDeparture(0, 0, 1, m.XON+1)
			if len(env.msgs) != 1 || env.msgs[0].Kind != flowcontrol.KindPause {
				t.Errorf("packet PFC at fluid XOFF %v / above XON %v emitted %v, want one PAUSE", m.XOFF, m.XON, env.msgs)
			}
			b.OnDeparture(0, 0, 1, m.XON)
			if len(env.msgs) != 2 || env.msgs[1].Kind != flowcontrol.KindResume {
				t.Errorf("packet PFC at fluid XON %v emitted %v, want PAUSE then RESUME", m.XON, env.msgs)
			}
		case fluid.Staged:
			b, _ := bank(ch)
			_, table := b.Bound(0)
			if !reflect.DeepEqual(table, m.T) {
				t.Errorf("stage tables differ: packet %+v, fluid %+v", table, m.T)
			}
			if want := table.StageRate(table.Stages()); pred.FloorRate != want {
				t.Errorf("analytic floor rate %v, wired table's deepest stage %v", pred.FloorRate, want)
			}
			if pred.MaxOccupancy != ceil {
				t.Errorf("analytic envelope %v, installed ceiling %v", pred.MaxOccupancy, ceil)
			}
		case fluid.Floored:
			law := m.M.(fluid.Continuous).M
			b, env := bank(ch)
			if bm, _ := b.Bound(0); bm != law.Bm {
				t.Errorf("packet Bm %v, fluid Bm %v", bm, law.Bm)
			}
			timeBased := psim.Spec.Scheme.FC == GFCTime
			if timeBased {
				b.Start()
				if len(env.delays) != 1 || env.delays[0] != ch.Period {
					t.Errorf("packet feedback timers %v, fluid period %v", env.delays, ch.Period)
				}
				if pred.MaxOccupancy != ceil {
					t.Errorf("analytic envelope %v, installed ceiling %v", pred.MaxOccupancy, ceil)
				}
			}
			// The sender's rate after feedback reporting queue q must be
			// the fluid law at q, across both knees of the mapping. The
			// time-based sender infers q = Bm − remaining credit, in
			// 64-byte blocks.
			span := law.Bm - law.B0
			for _, back := range []units.Size{law.Bm, span + 64, span, span / 2, 64, 0} {
				back -= back % flowcontrol.CreditBlock
				q := law.Bm - back
				b, _ := bank(ch)
				msg := flowcontrol.Message{Kind: flowcontrol.KindQueue, Queue: q}
				if timeBased {
					msg = flowcontrol.Message{Kind: flowcontrol.KindCredit, FCCL: int64(back / flowcontrol.CreditBlock)}
				}
				b.OnFeedback(1, msg)
				if got, want := b.Rate(1), m.RateAt(q); got != want {
					t.Errorf("q=%v: packet sender rate %v, fluid law %v", q, got, want)
				}
			}
		default:
			t.Fatalf("unexpected fluid mapping %T", ch.Mapping)
		}
	}
}

// TestPredictionsAgreeAcrossBackends: every registered scenario the fluid
// backend builds yields the same analytic prediction whichever
// backend compiled it.
func TestPredictionsAgreeAcrossBackends(t *testing.T) {
	for _, name := range Names() {
		spec, _ := Get(name)
		frun, err := (FluidBackend{}).Build(spec, nil)
		if err != nil {
			continue
		}
		psim, err := Build(spec, nil)
		if err != nil {
			t.Fatalf("%s: packet build: %v", name, err)
		}
		pp, perr := psim.Predict()
		fp, ferr := frun.(*fluidSim).predict()
		if perr != nil || ferr != nil || !reflect.DeepEqual(pp, fp) {
			t.Errorf("%s: packet prediction %+v (%v), fluid prediction %+v (%v)", name, pp, perr, fp, ferr)
		}
	}
}

// TestCBDVerdictMatchesFullScan: where the failed-link census stands in for
// the all-pairs scan, the verdict is the scan's. It runs on every registered
// fat-tree scenario (the case study, evolution, the sweep cell, clos128,
// clos1024 and clos3456), on clos128 with a host link failed, and on
// the sweep cell handed a five-switch ring through Overrides, where the
// census must decline: the ring's shortest paths close a cycle.
func TestCBDVerdictMatchesFullScan(t *testing.T) {
	type fixture struct {
		spec Spec
		ov   Overrides
	}
	var cases []fixture
	for _, name := range Names() {
		spec, _ := Get(name)
		if spec.Topology.Builder == "fat-tree" && !(testing.Short() && spec.Topology.K > 16) {
			cases = append(cases, fixture{spec: spec})
		}
	}
	hostCut, _ := Get("clos128-pfc")
	hostCut.Name += "-host-link-failed"
	hostCut.Topology.FailLinks = []string{"H0-E1"}
	cell, _ := Get("sweep-cell-pfc")
	cases = append(cases, fixture{spec: hostCut},
		fixture{spec: cell, ov: Overrides{Topo: topology.Ring(5, topology.DefaultLinkParams())}})
	generated, cyclic := 0, 0
	for _, tc := range cases {
		c, err := compile(tc.spec, &tc.ov)
		if err != nil {
			t.Fatalf("%s: %v", tc.spec.Name, err)
		}
		g := cbd.NewGraph(c.topo)
		for _, rf := range c.flows {
			g.AddPath(rf.flow.Path)
		}
		want := g.HasCycle()
		if c.spec.Workload.Generator != nil {
			generated++
			want = want || cbd.FromAllPairs(c.topo, c.table, workload.EdgeRacks(c.topo)).HasCycle()
		}
		if got := c.cbdVerdict(); got != want {
			t.Errorf("%s (%d nodes): verdict %v, full scan %v", tc.spec.Name, c.topo.NumNodes(), got, want)
		}
		if want {
			cyclic++
		}
	}
	if generated == 0 || cyclic == 0 || cyclic == len(cases) {
		t.Fatalf("%d cases, %d generated, %d cyclic: the fixtures miss a verdict", len(cases), generated, cyclic)
	}
}
