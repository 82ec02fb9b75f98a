// Network-of-queues fluid solver: the generalisation of Run from one
// GFC-controlled queue to a whole compiled topology. Each directed ingress
// channel carries its own lagged queue signal and queue-to-rate law; flows
// move bytes hop by hop, sharing each channel's admission budget
// proportionally. Where netsim replays every packet, RunNet integrates rates
// — measured on 25 ms k=4 Table 1 cells at 4.6× the packet engine's speed
// under GFC-buffer and 8.1× under GFC-time (EXPERIMENTS.md "Choosing a
// backend") — and fills the same metrics.Registry counters (bytes in/out,
// high-water occupancy, drops) so invariant checking, CheckNetwork and report
// writers work unchanged.
package fluid

import (
	"context"
	"fmt"
	"math"

	"github.com/gfcsim/gfc/internal/core"
	"github.com/gfcsim/gfc/internal/metrics"
	"github.com/gfcsim/gfc/internal/routing"
	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
)

// OnOff is a stateful pause/resume law: PFC hysteresis as a Mapping. The
// rate is C until the (lagged) queue reaches XOFF, then zero until it falls
// back to XON. One instance per channel — the pause state is history, not a
// function of the instantaneous queue.
type OnOff struct {
	C         units.Rate
	XOFF, XON units.Size
	paused    bool
}

// RateAt implements Mapping.
func (o *OnOff) RateAt(q units.Size) units.Rate {
	if o.paused {
		if q <= o.XON {
			o.paused = false
		}
	} else if q >= o.XOFF {
		o.paused = true
	}
	if o.paused {
		return 0
	}
	return o.C
}

// LineRate implements Mapping.
func (o *OnOff) LineRate() units.Rate { return o.C }

// Floored clamps a mapping's output to a minimum rate — the 8 Kbps floor the
// practical GFC schemes keep so progress never fully stops (Theorem 5.1's
// deadlock-freedom argument).
type Floored struct {
	M   Mapping
	Min units.Rate
}

// RateAt implements Mapping.
func (f Floored) RateAt(q units.Size) units.Rate {
	r := f.M.RateAt(q)
	if r < f.Min {
		return f.Min
	}
	return r
}

// LineRate implements Mapping.
func (f Floored) LineRate() units.Rate { return f.M.LineRate() }

// Band is the differential tolerance between the fluid and packet models of
// the same channel: the bytes a line-rate sender emits during the ~3 µs of
// feedback-latency ambiguity the fluid model elides (serialisation,
// scheduler quantisation), plus four packets of discretisation slack. The
// backend-conformance suite asserts it per registered scenario, and the
// benchmark reports how far generated sweep cells sit from it.
func Band(c units.Rate, mtu units.Size) units.Size {
	return units.BytesIn(c, 3*units.Microsecond) + 4*mtu
}

// NetChannel is one directed ingress queue of the network model: traffic
// arriving at Node through Port. The channel index space is whatever order the
// caller lists them in; metrics mapping goes through Registry.ChannelIndex.
type NetChannel struct {
	Node topology.NodeID
	Port int
	// Capacity is the feeding link's line rate — the admission ceiling.
	Capacity units.Rate
	// Buffer bounds the queue; inflow beyond it is dropped.
	Buffer units.Size
	// Tau is the feedback latency of this hop: the upstream sender's rate
	// at time t follows this queue at t − Tau.
	Tau units.Time
	// Period, when positive, models time-based feedback (the queue is
	// sampled every Period, each sample taking Tau to take effect).
	Period units.Time
	// Mapping is the queue-to-rate law; nil means uncontrolled (admit at
	// Capacity — host ingress, or schemes the caller handles elsewhere).
	Mapping Mapping
	// Host marks a destination host ingress: bytes arriving here are
	// consumed (delivered) immediately and never queue.
	Host bool
}

// NetFlow routes Size bytes (0 = unbounded) along Path, starting at Start.
// Path follows routing.Hop convention: one hop per transmitting node, the
// destination not included.
type NetFlow struct {
	Path  []routing.Hop
	Size  units.Size
	Start units.Time
}

// NetConfig parameterises one network fluid run.
type NetConfig struct {
	Channels []NetChannel
	Flows    []NetFlow
	// Step is the integration step; default 500 ns (coarser than the
	// single-queue default — a network smooths its own transients).
	Step units.Time
	// Horizon is the run length; default 5 ms.
	Horizon units.Time
	// MTU quantises drop accounting (drops are reported in packets);
	// default 1500 B.
	MTU units.Size
	// Metrics, when non-nil, is seeded once at the end of the run with
	// every channel's exact totals (bytes in/out, peak occupancy, drops)
	// via RecordContinuous — the solver tracks occupancy exactly, so
	// streaming per-step events through the per-packet hooks would only be
	// slower and lossier. The registry must already be bound with a layout
	// whose ChannelIndex resolves every (Node, Port) listed in Channels.
	Metrics *metrics.Registry
	// StallWindow is how long the network must hold positive backlog with
	// zero byte movement before RunNet declares deadlock; default 1 ms.
	StallWindow units.Time
	// Ctx, when non-nil, is polled every few thousand steps so bounded
	// runs honour cancellation.
	Ctx context.Context
}

// NetResult aggregates one network fluid run.
type NetResult struct {
	End       units.Time
	Delivered units.Size
	// FlowDelivered is per-flow delivered bytes, in Flows order.
	FlowDelivered []units.Size
	// Drops counts whole dropped packets (bytes/MTU).
	Drops int64
	// HighWater is the maximum queue reached on any non-host channel.
	HighWater  units.Size
	Deadlocked bool
	DeadlockAt units.Time
	// Steps is the number of steps actually integrated. It falls short of
	// End/Step when the quasi-steady fast-forward extrapolated the rest of
	// the horizon (End carries the horizon either way), or when the stall
	// watch or the context ended the run early.
	Steps int
}

// extrapolate is the quasi-steady fast-forward's switch. It is on; the
// package's tests turn it off to integrate the same network in full and
// bound what the extrapolation costs.
var extrapolate = true

// hotChan is the part of a channel's state the per-flow transfer walk
// touches: the demand gathered for the next step, this step's send and keep
// scales, the bytes moved in and out, and whether the channel is a consuming
// host ingress. It is split from chanState so every hop of the walk loads one
// 48-byte record.
type hotChan struct {
	wantNext             float64
	sendScale, keepScale float64
	inflow, outflow      float64
	host                 bool
}

// chanState is the rest of a channel's integration state, touched once per
// channel per step.
type chanState struct {
	q       float64 // current queue, bytes
	buffer  float64
	capStep float64 // bytes per step at capacity: an uncontrolled channel's budget
	mapping Mapping
	table   *core.StageTable // the mapping's table when it is Staged, called directly
	pipe    *sampler         // the feedback pipeline of a controlled Period channel
	// hist is the lagged-queue ring, len lag+1, cut from one array for
	// all channels. The slot a step reads (the queue lag steps ago) is the
	// slot it then overwrites, so one cursor serves both.
	hist     []float64
	lag, pos int
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
}

// sampler is a Period channel's feedback pipeline: the queue is sampled
// every Period and each sample's rate takes effect Tau later. The samples in
// flight sit in a ring, n of them from head on. A sample due at k·Period is
// taken on the first step at or after it, one per step at most, so samples
// are never more than a step late and never more frequent than one per
// Period or per step, whichever is longer: ⌈Tau/Period⌉+1 entries hold
// every sample still in flight.
type sampler struct {
	next    units.Time // the next sampling instant
	rate    units.Rate // the rate in force
	ring    []rateUpdate
	head, n int
}

type rateUpdate struct {
	at units.Time
	r  units.Rate
}

// rateAt maps a queue through the channel's law.
func (st *chanState) rateAt(q float64) units.Rate {
	if st.table != nil {
		return st.table.RateFor(units.Size(q))
	}
	return st.mapping.RateAt(units.Size(q))
}

// flowState is one flow's source and its hops [off, end) of the run's flat
// hop arrays: the channel each hop feeds and the flow's backlog there.
type flowState struct {
	off, end int
	remain   float64 // source bytes left; +Inf for unbounded
	srcStep  float64 // bytes the source link carries per step
	start    units.Time
	done     bool
	simple   bool    // no two hops feed the same channel
	winDel   float64 // bytes delivered this fast-forward window
}

// srcAvail is what the source can send this step.
func (fs *flowState) srcAvail() float64 {
	if fs.remain > fs.srcStep {
		return fs.srcStep
	}
	return fs.remain
}

// gather adds one flow's demand on its hops' channels for the coming step —
// the source's step at the first hop, each backlog at the hop after it — in
// hop order, so every channel sums its terms in flow order.
func gather(hot []hotChan, hops []int32, backlog []float64, src float64) {
	hot[hops[0]].wantNext += src
	for h := 1; h < len(hops); h++ {
		hot[hops[h]].wantNext += backlog[h-1]
	}
}

// RunNet integrates the network model.
func RunNet(cfg NetConfig) (*NetResult, error) {
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
	if cfg.StallWindow == 0 {
		cfg.StallWindow = units.Millisecond
	}
	if cfg.Step < 0 || cfg.Horizon < 0 {
		return nil, fmt.Errorf("fluid: negative Step or Horizon")
	}
	dt := cfg.Step.Seconds()

	// Channel lookup by (node, port). One window spans the deepest feedback
	// pipeline (lag ring plus any periodic sampler); see the fast-forward
	// below.
	type key struct {
		n topology.NodeID
		p int
	}
	byKey := make(map[key]int, len(cfg.Channels))
	chans := make([]chanState, len(cfg.Channels))
	hot := make([]hotChan, len(cfg.Channels))
	window, nhist := 64, 0
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
		hot[i].host = ch.Host
		st := &chans[i]
		st.buffer = float64(ch.Buffer)
		st.capStep = float64(ch.Capacity) / 8 * dt
		st.mapping = ch.Mapping
		st.lag = int(ch.Tau / cfg.Step)
		nhist += st.lag + 1
		st.pos = 1 % (st.lag + 1)
		if ch.Mapping != nil {
			if s, ok := ch.Mapping.(Staged); ok {
				st.table = s.T
			}
			if ch.Period > 0 {
				st.pipe = &sampler{
					next: ch.Period, rate: ch.Mapping.LineRate(),
					ring: make([]rateUpdate, (ch.Tau+ch.Period-1)/ch.Period+1),
				}
			}
		}
		w := st.lag + 2
		if p := ch.Period; p > 0 {
			if pw := int(p/cfg.Step) + st.lag + 2; pw > w {
				w = pw
			}
		}
		if w > window {
			window = w
		}
	}
	hist := make([]float64, nhist)
	for c := range chans {
		st := &chans[c]
		st.hist, hist = hist[:st.lag+1:st.lag+1], hist[st.lag+1:]
	}

	// Resolve flow paths to channel indices: hop h of a flow feeds the
	// ingress channel of the node *after* the hop's link. Every flow's hops
	// sit in one flat array.
	nhops := 0
	for fi := range cfg.Flows {
		nhops += len(cfg.Flows[fi].Path)
	}
	hopChan := make([]int32, 0, nhops)
	flows := make([]flowState, len(cfg.Flows))
	for fi := range cfg.Flows {
		f := &cfg.Flows[fi]
		if len(f.Path) == 0 {
			return nil, fmt.Errorf("fluid: flow %d: empty path", fi)
		}
		if f.Start < 0 {
			return nil, fmt.Errorf("fluid: flow %d: negative start", fi)
		}
		fs := &flows[fi]
		fs.start = f.Start
		fs.srcStep = float64(f.Path[0].Link.Capacity) / 8 * dt
		fs.remain = math.Inf(1)
		if f.Size > 0 {
			fs.remain = float64(f.Size)
		}
		fs.off = len(hopChan)
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
			hopChan = append(hopChan, int32(ci))
		}
		fs.end = len(hopChan)
		fs.simple = true
		for a := fs.off; a < fs.end; a++ {
			for b := a + 1; b < fs.end; b++ {
				if hopChan[a] == hopChan[b] {
					fs.simple = false
				}
			}
		}
	}
	backlog := make([]float64, len(hopChan))

	steps := int(cfg.Horizon / cfg.Step)
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
	const drainFrac = 1e-3 // tolerated drain, fraction of line rate
	stableWins := 0
	winLeft := window

	// Demand is gathered one step ahead: each flow adds what it will bid in
	// step i+1 from the stores its own transfer walk in step i leaves
	// behind, in flow order, so every channel sums the same terms in the
	// same order as a separate pass would. Step 0's bids are gathered here.
	for fi := range flows {
		if fs := &flows[fi]; fs.start <= 0 {
			gather(hot, hopChan[fs.off:fs.end], backlog[fs.off:fs.end], fs.srcAvail())
		}
	}

	for i := 0; i < steps; i++ {
		now := units.Time(i) * cfg.Step
		next := now + cfg.Step
		res.End = next
		res.Steps = i + 1
		if cfg.Ctx != nil && i&4095 == 0 {
			if err := cfg.Ctx.Err(); err != nil {
				return res, err
			}
		}

		// Phase A: per-channel admission budgets from the lagged queue
		// signal (or the periodic-sample pipeline), then send/keep scales
		// for the gathered demand. A transfer leaves its upstream store at
		// sendScale (admission budget) and survives into the queue at
		// keepScale (buffer space); the difference is dropped bytes.
		for c := range chans {
			st, hc := &chans[c], &hot[c]
			budget := st.capStep
			if st.mapping != nil {
				var r units.Rate
				switch p := st.pipe; {
				case p != nil:
					for p.n > 0 && now >= p.ring[p.head].at {
						p.rate = p.ring[p.head].r
						if p.head++; p.head == len(p.ring) {
							p.head = 0
						}
						p.n--
					}
					if now >= p.next {
						tail := p.head + p.n
						if tail >= len(p.ring) {
							tail -= len(p.ring)
						}
						ch := &cfg.Channels[c]
						p.ring[tail] = rateUpdate{at: now + ch.Tau, r: st.rateAt(st.q)}
						p.n++
						p.next += ch.Period
					}
					r = p.rate
				case i <= st.lag:
					r = st.mapping.LineRate()
				default:
					r = st.rateAt(st.hist[st.pos])
				}
				// Capped at the line rate: capStep is that rate's budget.
				if b := float64(r) / 8 * dt; b < budget {
					budget = b
				}
			}
			want := hc.wantNext
			x := want
			if x > budget {
				x = budget
			}
			fits := x
			if !hc.host {
				free := st.buffer - st.q
				if free < 0 {
					free = 0
				}
				if fits > free {
					fits = free
				}
			}
			hc.sendScale, hc.keepScale = 1, 1
			if want > 0 {
				hc.sendScale = x / want
			}
			if x > 0 {
				hc.keepScale = fits / x
			}
			drop := x - fits
			st.dropAcc += drop
			st.winDrop += drop
			hc.wantNext, hc.inflow, hc.outflow = 0, 0, 0
		}

		// Phase B: apply transfers and gather the next step's demand. Hops
		// are walked last-to-first so each upstream store is read (as this
		// hop's avail) before its own earlier hop writes it — every move is
		// computed from start-of-step state, keeping the step
		// order-independent. The store of the hop being walked rides in cur:
		// the hop after it took its out, this hop adds its in, and it is
		// written back once. A flow not yet started bids if it starts next
		// step; a finished one no longer does.
		moved := false
		var sink hotChan
		for fi := range flows {
			fs := &flows[fi]
			if fs.done {
				continue
			}
			hops, bl := hopChan[fs.off:fs.end], backlog[fs.off:fs.end]
			if now < fs.start {
				if next >= fs.start {
					gather(hot, hops, bl, fs.srcAvail())
				}
				continue
			}
			src := fs.srcAvail()
			// A flow whose source outlasts this step cannot finish in it,
			// and if its hops feed distinct channels it bids on each channel
			// once, so the order within the flow is moot: it bids on the
			// hop after each store as the walk leaves that store. Any other
			// flow bids after its walk, in hop order, unless it finished.
			ahead := fs.simple && fs.remain > src
			cur := bl[len(bl)-1]
			below := &sink // the last hop's store is no channel's demand
			for h := len(hops) - 1; h >= 0; h-- {
				st := &hot[hops[h]]
				avail, up := src, 0.0
				if h > 0 {
					up = bl[h-1]
					avail = up
				}
				if out := avail * st.sendScale; out > 0 {
					in := out * st.keepScale
					if h == 0 {
						fs.remain -= out
					} else {
						up -= out
						hot[hops[h-1]].outflow += out
					}
					if st.host {
						flowDel[fi] += in
						fs.winDel += in
						delivered += in
						st.inflow += in
						st.outflow += in
					} else {
						cur += in
						st.inflow += in
					}
					moved = true
				}
				bl[h] = cur
				if ahead {
					below.wantNext += cur
					below = st
				}
				cur = up
			}
			if ahead {
				below.wantNext += fs.srcAvail()
				continue
			}
			if fs.remain <= 0 {
				fs.remain = 0
				var left float64
				for _, b := range bl {
					left += b
				}
				if left < 1 { // fully drained: below one byte in flight
					fs.done = true
					continue
				}
			}
			gather(hot, hops, bl, fs.srcAvail())
		}

		// Phase C: queue updates, metrics, lag history, deadlock watch.
		var queued float64
		for c := range chans {
			st, hc := &chans[c], &hot[c]
			st.q += hc.inflow - hc.outflow
			if st.q < 0 {
				st.q = 0
			}
			if !hc.host {
				queued += st.q
				if st.q > st.qmax {
					st.qmax = st.q
				}
			}
			st.totalIn += hc.inflow
			st.totalOut += hc.outflow
			st.winIn += hc.inflow
			st.winOut += hc.outflow
			if st.dropAcc >= mtu {
				n := math.Floor(st.dropAcc / mtu)
				st.dropAcc -= n * mtu
				st.dropPkts += int64(n)
				drops += int64(n)
			}
			st.hist[st.pos] = st.q
			if st.pos++; st.pos > st.lag {
				st.pos = 0
			}
		}
		// Deadlock is a standstill, not a trickle: nothing at all moved,
		// which holds exactly when every channel with demand has a zero
		// permitted rate — the packet detector's rule. A floor-rate GFC
		// channel keeps moved set, so the verdict cannot depend on the
		// horizon.
		if queued > mtu && !moved {
			if stallStart < 0 {
				stallStart = now
			}
			if now-stallStart >= cfg.StallWindow {
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
		if winLeft--; winLeft == 0 {
			winLeft = window
			w := float64(window)
			rem := float64(steps - (i + 1))
			calm := stallStart < 0
			if calm {
				for c := range chans {
					st := &chans[c]
					dq := st.q - st.qSnap
					var ok bool
					if _, hyst := st.mapping.(*OnOff); hyst {
						ok = dq <= 1 && dq >= -1
					} else if dq <= 0 {
						ok = -dq <= st.capStep*drainFrac*w
					} else {
						curve := dq - st.dqPrev
						if curve < 0 {
							curve = -curve
						}
						ok = curve*rem/w <= 4*mtu &&
							st.q+dq/w*rem < st.buffer
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
						st.totalIn += st.winIn / w * rem
						st.totalOut += st.winOut / w * rem
						st.dropAcc += st.winDrop / w * rem
						if st.dropAcc >= mtu {
							n := math.Floor(st.dropAcc / mtu)
							st.dropAcc -= n * mtu
							st.dropPkts += int64(n)
							drops += int64(n)
						}
						if hot[c].host {
							continue
						}
						st.q += (st.q - st.qSnap) / w * rem
						if st.q < 0 {
							st.q = 0
						}
						if st.q > st.buffer {
							st.q = st.buffer
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
		if !hot[c].host && chans[c].qmax > hw {
			hw = chans[c].qmax
		}
	}
	res.HighWater = units.Size(hw)
	if cfg.Metrics != nil {
		for c := range chans {
			st, ch := &chans[c], &cfg.Channels[c]
			cfg.Metrics.RecordContinuous(cfg.Metrics.ChannelIndex(ch.Node, ch.Port), res.End,
				units.Size(st.totalIn), units.Size(st.totalOut),
				units.Size(st.qmax), units.Size(st.q), st.dropPkts)
		}
	}
	return res, nil
}
