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
// Period and Period below the step, steps of 0.5 and 2 µs, the fast-forward
// on and off, and a PFC ring that stalls or loops flows over a channel twice.
func TestRunNetMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	trials := 40
	if testing.Short() {
		trials = 10
	}
	var drops, stalls, forwarded int
	defer func() { extrapolate = true }()
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
		extrapolate = rng.Intn(2) == 0
		got, gotReg := f.run(t, RunNet)
		want, wantReg := f.run(t, runNetReference)
		desc := fmt.Sprintf("trial %d (law %d, buffer %v, tau %v, step %v, horizon %v, fast-forward %v)",
			trial, law, buffer, tau, f.cfg.Step, f.cfg.Horizon, extrapolate)
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
		} else if got.Steps < int(f.cfg.Horizon/f.cfg.Step) {
			forwarded++
		}
	}
	t.Logf("%d trials: %d dropped, %d stalled, %d fast-forwarded", trials, drops, stalls, forwarded)
	// The -short trials are too few to be sure of reaching every regime.
	if !testing.Short() && (drops == 0 || stalls == 0 || forwarded == 0) {
		t.Errorf("the fixtures no longer reach every regime: %d dropped, %d stalled, %d fast-forwarded", drops, stalls, forwarded)
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
	dropStep, capStep             float64
	// Fast-forward window accumulators: queue snapshot at the last window
	// boundary, the previous window's queue delta, and in/out/dropped
	// bytes since the boundary.
	qSnap, dqPrev, winIn, winOut, winDrop float64
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
	winDel  float64 // bytes delivered this fast-forward window
}

// runNetReference is RunNet's step loop as it stood before PR 25 flattened
// it, kept verbatim (types renamed) as the model the rewrite must reproduce
// bit for bit. Its pending-update queue still grows with the horizon when
// Tau > Period; what counts is the pop order, which the ring kept.
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

	// Quasi-steady fast-forward: with constant demand the dynamics are
	// deterministic, so once the network settles into a linear regime the
	// rest of the horizon is extrapolated from window-mean rates in one
	// shot, including each queue's own trajectory. Linearity is judged per
	// window — one window spans the deepest feedback pipeline (lag ring
	// plus any periodic sampler), so the queue-to-rate micro-oscillation
	// that periodic resampling sustains forever averages out. Per channel:
	// a slow drain — the quasi-static tail of a congested victim queue —
	// passes up to 0.1% of line rate (draining can neither raise the peak
	// nor start dropping; the residual only perturbs delivered totals by a
	// few KB out of tens of MB); a climb passes when it is steady — the
	// window-to-window change, integrated over the tail, stays under the
	// 4-MTU slack that Band reserves for discretisation — and its linear
	// projection stays below the buffer (reaching the buffer would start
	// dropping, a qualitative change). Hysteretic (OnOff) channels ride a
	// relaxation limit cycle that is never linear, so they only pass
	// essentially still. Two consecutive calm windows are required so the
	// extrapolation basis is not the tail of a transient, and a pending
	// stall always blocks — the watch, not the extrapolation, owns the
	// deadlock verdict.
	window := 64
	for c := range chans {
		st := &chans[c]
		st.capStep = float64(cfg.Channels[c].Capacity) / 8 * dt
		w := st.lag + 2
		if p := cfg.Channels[c].Period; p > 0 {
			if pw := int(p/cfg.Step) + st.lag + 2; pw > w {
				w = pw
			}
		}
		if w > window {
			window = w
		}
	}
	const drainFrac = 1e-3 // tolerated drain, fraction of line rate
	stableWins := 0

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
			st.dropStep = x - fits
			st.dropAcc += st.dropStep
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
					fs.winDel += in
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
			st.winIn += st.inflow
			st.winOut += st.outflow
			st.winDrop += st.dropStep
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

		// Window boundary: judge quiescence, fast-forward if two calm
		// windows have accrued, then roll the accumulators. A pending
		// stall must run its course (the watch, not the extrapolation,
		// owns the deadlock verdict); bounded or not-yet-started flows
		// make the future non-linear, so they block the fast-forward too.
		if (i+1)%window == 0 {
			w := float64(window)
			rem := float64(steps - (i + 1))
			calm := stallStart < 0
			if calm {
				for c := range chans {
					st := &chans[c]
					ch := &cfg.Channels[c]
					dq := st.q - st.qSnap
					var ok bool
					if _, hyst := ch.Mapping.(*OnOff); hyst {
						ok = dq <= 1 && dq >= -1
					} else if dq <= 0 {
						ok = -dq <= st.capStep*drainFrac*w
					} else {
						curve := dq - st.dqPrev
						if curve < 0 {
							curve = -curve
						}
						ok = curve*rem/w <= 4*mtu &&
							st.q+dq/w*rem < float64(ch.Buffer)
					}
					if !ok {
						calm = false
						break
					}
				}
			}
			if calm {
				stableWins++
			} else {
				stableWins = 0
			}
			if extrapolate && stableWins >= 2 && rem > 0 {
				linear := true
				for fi := range flows {
					fs := &flows[fi]
					if fs.done {
						continue
					}
					if now < fs.start || !math.IsInf(fs.remain, 1) {
						linear = false
						break
					}
				}
				if linear {
					for c := range chans {
						st := &chans[c]
						ch := &cfg.Channels[c]
						st.totalIn += st.winIn / w * rem
						st.totalOut += st.winOut / w * rem
						st.dropAcc += st.winDrop / w * rem
						if st.dropAcc >= mtu {
							n := math.Floor(st.dropAcc / mtu)
							st.dropAcc -= n * mtu
							st.dropPkts += int64(n)
							drops += int64(n)
						}
						if ch.Host {
							continue
						}
						st.q += (st.q - st.qSnap) / w * rem
						if st.q < 0 {
							st.q = 0
						}
						if b := float64(ch.Buffer); st.q > b {
							st.q = b
						}
						if st.q > st.qmax {
							st.qmax = st.q
						}
					}
					for fi := range flows {
						fs := &flows[fi]
						if fs.done {
							continue
						}
						add := fs.winDel / w * rem
						flowDel[fi] += add
						delivered += add
					}
					res.End = units.Time(steps) * cfg.Step
					break
				}
			}
			for c := range chans {
				st := &chans[c]
				st.dqPrev = st.q - st.qSnap
				st.qSnap = st.q
				st.winIn, st.winOut, st.winDrop = 0, 0, 0
			}
			for fi := range flows {
				flows[fi].winDel = 0
			}
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
