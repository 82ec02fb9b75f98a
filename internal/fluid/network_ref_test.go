package fluid

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
)

// TestRunNetMatchesReference integrates randomised fixtures with RunNet and
// with runNetReference and requires reflect.DeepEqual results and registry
// totals: every law, buffers small enough to drop, bounded sizes and
// staggered starts (flows finish and join mid-run), Tau above and below
// Period and Period below the step, steps of 0.5 and 2 µs, and a PFC ring
// that stalls or loops flows over a channel twice. A run the stall watch did
// not end integrates every step of its horizon.
func TestRunNetMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	trials := 40
	if testing.Short() {
		trials = 10
	}
	var drops, stalls int
	for trial := 0; trial < trials; trial++ {
		buffer := []units.Size{40 * units.KB, 120 * units.KB, 300 * units.KB}[rng.Intn(3)]
		tau := []units.Time{0, 4 * units.Microsecond, 16 * units.Microsecond}[rng.Intn(3)]
		var f netFixture
		law := rng.Intn(5)
		switch law {
		case 0:
			f = fatTreeFixture(t, rng.Int63n(100), 1+rng.Intn(4), buffer, tau, 0, stagedSim(t))
		case 1:
			f = fatTreeFixture(t, rng.Int63n(100), 1+rng.Intn(4), buffer, tau, 0, continuousLaw)
		case 2:
			period := []units.Time{units.Microsecond, 4 * units.Microsecond, 52400 * units.Nanosecond}[rng.Intn(3)]
			f = fatTreeFixture(t, rng.Int63n(100), 1+rng.Intn(4), buffer, tau, period, continuousLaw)
		case 3:
			f = fatTreeFixture(t, rng.Int63n(100), 1+rng.Intn(4), buffer, tau, 0, pfcLaw(buffer, tau))
		case 4:
			if rng.Intn(2) == 0 {
				f = pfcRing(t, buffer, 3, 3, 3, 3)
			} else {
				f = pfcRing(t, buffer, 5, 1, 2, 1)
			}
		}
		if mix := rng.Intn(3); mix > 0 {
			for i := range f.cfg.Flows {
				if rng.Intn(4-mix) == 0 {
					f.cfg.Flows[i].Size = units.Size(1+rng.Intn(400)) * units.KB
				}
				if rng.Intn(4-mix) == 0 {
					f.cfg.Flows[i].Start = units.Time(rng.Intn(2000)) * units.Microsecond
				}
			}
		}
		f.cfg.Step = []units.Time{500 * units.Nanosecond, 2 * units.Microsecond}[rng.Intn(2)]
		f.cfg.Horizon = units.Time(2+rng.Intn(7)) * units.Millisecond
		got, gotReg := f.run(t, RunNet)
		want, wantReg := f.run(t, runNetReference)
		desc := fmt.Sprintf("trial %d (law %d, buffer %v, tau %v, step %v, horizon %v)",
			trial, law, buffer, tau, f.cfg.Step, f.cfg.Horizon)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: RunNet %+v, reference %+v", desc, got, want)
		}
		for _, ch := range f.cfg.Channels {
			idx := gotReg.ChannelIndex(ch.Node, ch.Port)
			if g, w := gotReg.Counter(idx), wantReg.Counter(idx); g != w {
				t.Fatalf("%s: channel (%d, %d) counters %+v, reference %+v", desc, ch.Node, ch.Port, g, w)
			}
			if g, w := gotReg.Series(idx), wantReg.Series(idx); !reflect.DeepEqual(g, w) {
				t.Fatalf("%s: channel (%d, %d) final occupancy %+v, reference %+v", desc, ch.Node, ch.Port, g, w)
			}
		}
		if got.Drops > 0 {
			drops++
		}
		if got.Deadlocked {
			stalls++
		} else if n := int(f.cfg.Horizon / f.cfg.Step); got.Steps != n || got.End != f.cfg.Horizon {
			t.Fatalf("%s: integrated %d steps to %v, want %d to the horizon", desc, got.Steps, got.End, n)
		}
	}
	t.Logf("%d trials: %d dropped, %d stalled", trials, drops, stalls)
	// The -short trials are too few to be sure of reaching every regime.
	if !testing.Short() && (drops == 0 || stalls == 0) {
		t.Errorf("the fixtures no longer reach every regime: %d dropped, %d stalled", drops, stalls)
	}
}

// refChanState is the per-channel integration state.
type refChanState struct {
	q        float64   // current queue, bytes
	hist     []float64 // lagged-queue ring, len lag+1
	lag      int
	rate     units.Rate // current admission rate (Period channels)
	pending  []refRateUpdate
	head     int
	nextSamp units.Time
	// Per-step scratch.
	want, budget, inflow, outflow float64
	sendScale, keepScale          float64
	// Run totals, seeded into the metrics registry once at the end of the
	// run. dropAcc carries fractional dropped bytes until they amount to a
	// whole packet.
	totalIn, totalOut, dropAcc float64
	dropPkts                   int64
	qmax                       float64
	idx                        int // metrics channel index, -1 without registry
}

type refRateUpdate struct {
	at units.Time
	r  units.Rate
}

// refFlowState tracks one flow's backlog at each hop's ingress channel.
type refFlowState struct {
	chans   []int // channel index per hop
	backlog []float64
	remain  float64 // source bytes left; +Inf for unbounded
	srcCap  units.Rate
	start   units.Time
	done    bool
}

// runNetReference is RunNet's step loop in its straightforward form, before
// the per-flow hop arrays were flattened and demand gathered a step ahead:
// the model the flat loop must reproduce bit for bit. Its pending-update
// queue still grows with the horizon when Tau > Period; what counts is the
// pop order, which the ring kept.
func runNetReference(cfg NetConfig) (*NetResult, error) {
	if len(cfg.Channels) == 0 {
		return nil, fmt.Errorf("fluid: no channels")
	}
	if len(cfg.Flows) == 0 {
		return nil, fmt.Errorf("fluid: no flows")
	}
	if cfg.Step == 0 {
		cfg.Step = 500 * units.Nanosecond
	}
	if cfg.Horizon == 0 {
		cfg.Horizon = 5 * units.Millisecond
	}
	if cfg.MTU == 0 {
		cfg.MTU = 1500 * units.Byte
	}
	if cfg.Step < 0 || cfg.Horizon < 0 {
		return nil, fmt.Errorf("fluid: negative Step or Horizon")
	}

	// Channel lookup by (node, port).
	type key struct {
		n topology.NodeID
		p int
	}
	byKey := make(map[key]int, len(cfg.Channels))
	chans := make([]refChanState, len(cfg.Channels))
	for i := range cfg.Channels {
		ch := &cfg.Channels[i]
		if ch.Capacity <= 0 {
			return nil, fmt.Errorf("fluid: channel %d (node %d port %d): non-positive capacity", i, ch.Node, ch.Port)
		}
		if ch.Buffer <= 0 && !ch.Host {
			return nil, fmt.Errorf("fluid: channel %d (node %d port %d): non-positive buffer", i, ch.Node, ch.Port)
		}
		if ch.Tau < 0 || ch.Period < 0 {
			return nil, fmt.Errorf("fluid: channel %d: negative Tau or Period", i)
		}
		k := key{ch.Node, ch.Port}
		if _, dup := byKey[k]; dup {
			return nil, fmt.Errorf("fluid: duplicate channel for node %d port %d", ch.Node, ch.Port)
		}
		byKey[k] = i
		st := &chans[i]
		st.lag = int(ch.Tau / cfg.Step)
		st.hist = make([]float64, st.lag+1)
		st.rate = ch.Capacity
		if ch.Mapping != nil {
			st.rate = ch.Mapping.LineRate()
		}
		st.nextSamp = ch.Period
		st.idx = -1
		if cfg.Metrics != nil {
			st.idx = cfg.Metrics.ChannelIndex(ch.Node, ch.Port)
		}
	}

	// Resolve flow paths to channel indices: hop h of a flow feeds the
	// ingress channel of the node *after* the hop's link.
	flows := make([]refFlowState, len(cfg.Flows))
	for fi := range cfg.Flows {
		f := &cfg.Flows[fi]
		if len(f.Path) == 0 {
			return nil, fmt.Errorf("fluid: flow %d: empty path", fi)
		}
		if f.Start < 0 {
			return nil, fmt.Errorf("fluid: flow %d: negative start", fi)
		}
		fs := &flows[fi]
		fs.chans = make([]int, len(f.Path))
		fs.backlog = make([]float64, len(f.Path))
		fs.start = f.Start
		fs.srcCap = f.Path[0].Link.Capacity
		fs.remain = math.Inf(1)
		if f.Size > 0 {
			fs.remain = float64(f.Size)
		}
		for h, hop := range f.Path {
			if hop.Link == nil {
				return nil, fmt.Errorf("fluid: flow %d hop %d: nil link", fi, h)
			}
			if hop.Link.Failed {
				return nil, fmt.Errorf("fluid: flow %d hop %d: routes over failed link", fi, h)
			}
			next := hop.Link.Other(hop.Node)
			ci, ok := byKey[key{next, hop.Link.PortOn(next)}]
			if !ok {
				return nil, fmt.Errorf("fluid: flow %d hop %d: no channel at node %d port %d",
					fi, h, next, hop.Link.PortOn(next))
			}
			fs.chans[h] = ci
		}
	}

	steps := int(cfg.Horizon / cfg.Step)
	dt := cfg.Step.Seconds()
	mtu := float64(cfg.MTU)
	res := &NetResult{FlowDelivered: make([]units.Size, len(flows))}
	flowDel := make([]float64, len(flows))
	var delivered float64
	var drops int64
	stallStart := units.Time(-1)

	for i := 0; i < steps; i++ {
		now := units.Time(i) * cfg.Step
		res.End = now + cfg.Step
		res.Steps = i + 1
		if cfg.Ctx != nil && i&4095 == 0 {
			if err := cfg.Ctx.Err(); err != nil {
				return res, err
			}
		}

		// Phase A: per-channel admission budgets from the lagged queue
		// signal (or the periodic-sample pipeline).
		for c := range chans {
			st := &chans[c]
			ch := &cfg.Channels[c]
			r := ch.Capacity
			if ch.Mapping != nil {
				if ch.Period > 0 {
					for st.head < len(st.pending) && now >= st.pending[st.head].at {
						st.rate = st.pending[st.head].r
						st.head++
					}
					if st.head == len(st.pending) && st.head > 0 {
						st.pending = st.pending[:0]
						st.head = 0
					}
					if now >= st.nextSamp {
						st.pending = append(st.pending, refRateUpdate{
							at: now + ch.Tau,
							r:  ch.Mapping.RateAt(units.Size(st.q)),
						})
						st.nextSamp += ch.Period
					}
					r = st.rate
				} else if i <= st.lag {
					r = ch.Mapping.LineRate()
				} else {
					r = ch.Mapping.RateAt(units.Size(st.hist[(i-st.lag)%(st.lag+1)]))
				}
			}
			if r > ch.Capacity {
				r = ch.Capacity
			}
			st.budget = float64(r) / 8 * dt
			st.want, st.inflow, st.outflow = 0, 0, 0
		}

		// Phase B: wants from start-of-step stores, then per-channel
		// send/keep scales. A transfer leaves its upstream store at
		// sendScale (admission budget) and survives into the queue at
		// keepScale (buffer space); the difference is dropped bytes.
		for fi := range flows {
			fs := &flows[fi]
			if fs.done || now < fs.start {
				continue
			}
			src := fs.remain
			if cap := float64(fs.srcCap) / 8 * dt; src > cap {
				src = cap
			}
			chans[fs.chans[0]].want += src
			for h := 1; h < len(fs.chans); h++ {
				chans[fs.chans[h]].want += fs.backlog[h-1]
			}
		}
		for c := range chans {
			st := &chans[c]
			ch := &cfg.Channels[c]
			x := st.want
			if x > st.budget {
				x = st.budget
			}
			fits := x
			if !ch.Host {
				free := float64(ch.Buffer) - st.q
				if free < 0 {
					free = 0
				}
				if fits > free {
					fits = free
				}
			}
			st.sendScale, st.keepScale = 1, 1
			if st.want > 0 {
				st.sendScale = x / st.want
			}
			if x > 0 {
				st.keepScale = fits / x
			}
			st.dropAcc += x - fits
		}

		// Phase C: apply transfers. Hops are walked last-to-first so each
		// upstream store is read (as this hop's avail) before its own
		// earlier hop writes it — every move is computed from
		// start-of-step state, keeping the step order-independent.
		var moved float64
		for fi := range flows {
			fs := &flows[fi]
			if fs.done || now < fs.start {
				continue
			}
			srcAvail := fs.remain
			if cap := float64(fs.srcCap) / 8 * dt; srcAvail > cap {
				srcAvail = cap
			}
			for h := len(fs.chans) - 1; h >= 0; h-- {
				st := &chans[fs.chans[h]]
				avail := srcAvail
				if h > 0 {
					avail = fs.backlog[h-1]
				}
				out := avail * st.sendScale
				if out <= 0 {
					continue
				}
				in := out * st.keepScale
				if h == 0 {
					fs.remain -= out
				} else {
					fs.backlog[h-1] -= out
					chans[fs.chans[h-1]].outflow += out
				}
				if cfg.Channels[fs.chans[h]].Host {
					flowDel[fi] += in
					delivered += in
					st.inflow += in
					st.outflow += in
				} else {
					fs.backlog[h] += in
					st.inflow += in
				}
				moved += out
			}
			if fs.remain <= 0 {
				fs.remain = 0
				var backlog float64
				for _, b := range fs.backlog {
					backlog += b
				}
				if backlog < 1 { // fully drained: below one byte in flight
					fs.done = true
				}
			}
		}

		// Phase D: queue updates, metrics, lag history, deadlock watch.
		var backlog float64
		for c := range chans {
			st := &chans[c]
			st.q += st.inflow - st.outflow
			if st.q < 0 {
				st.q = 0
			}
			if !cfg.Channels[c].Host {
				backlog += st.q
				if st.q > st.qmax {
					st.qmax = st.q
				}
			}
			st.totalIn += st.inflow
			st.totalOut += st.outflow
			if st.dropAcc >= mtu {
				n := math.Floor(st.dropAcc / mtu)
				st.dropAcc -= n * mtu
				st.dropPkts += int64(n)
				drops += int64(n)
			}
			st.hist[(i+1)%(st.lag+1)] = st.q
		}
		// Deadlock is a standstill, not a trickle: nothing at all moved,
		// which holds exactly when every channel with demand has a zero
		// permitted rate — the packet detector's rule. A floor-rate GFC
		// channel keeps moved positive, so the verdict cannot depend on
		// the horizon.
		if backlog > mtu && moved == 0 {
			if stallStart < 0 {
				stallStart = now
			}
			if now-stallStart >= stallWindow {
				res.Deadlocked = true
				res.DeadlockAt = stallStart
				break
			}
		} else {
			stallStart = -1
		}
	}

	res.Delivered = units.Size(delivered)
	res.Drops = drops
	for fi := range flows {
		res.FlowDelivered[fi] = units.Size(flowDel[fi])
	}
	var hw float64
	for c := range chans {
		if !cfg.Channels[c].Host && chans[c].qmax > hw {
			hw = chans[c].qmax
		}
	}
	res.HighWater = units.Size(hw)
	if cfg.Metrics != nil {
		for c := range chans {
			st := &chans[c]
			if st.idx < 0 {
				continue
			}
			cfg.Metrics.RecordContinuous(st.idx, res.End,
				units.Size(st.totalIn), units.Size(st.totalOut),
				units.Size(st.qmax), units.Size(st.q), st.dropPkts)
		}
	}
	return res, nil
}
