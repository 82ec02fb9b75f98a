package flowcontrol

import (
	"fmt"

	"github.com/gfcsim/gfc/internal/core"
	"github.com/gfcsim/gfc/internal/units"
)

// GFCBufferConfig configures buffer-based GFC (§5.1): the Message Generator
// fires whenever the ingress queue crosses a stage threshold and the Rate
// Adjuster maps the carried stage ID to a sending rate through the
// multi-stage table.
type GFCBufferConfig struct {
	// B1 is the first stage threshold; it must satisfy B1 ≤ B − 2Cτ
	// (§5.4). Zero means "derive the safe maximum from Params".
	B1 units.Size
	// Bm is the mapping ceiling; zero defaults to the buffer size minus
	// four MTUs. The paper sets B_m = B outright, but its final stage
	// keeps a positive rate (§4.2), so under a fully stopped drain the
	// queue can exceed B_m by a few packets before feedback bites — the
	// small default headroom absorbs that one feedback latency of
	// bottom-rate trickle. It does not bound a floor-locked CBD: a fan-in
	// point whose upstreams all send at the bottom rate still overflows.
	Bm units.Size
	// Ratio is the per-stage rate ratio R_k/R_{k−1}; zero means the
	// paper's 1/2 (equation 4). Equation (3) requires ≤ 3/4.
	Ratio float64
	// Refresh, when positive, re-advertises the current stage every
	// Refresh even without a threshold crossing. Stage feedback is
	// edge-triggered, so a single lost message otherwise leaves the
	// sender on a stale rate forever; periodic refresh bounds the
	// staleness at one Refresh period past the loss burst (the same
	// repair PFC gets from pause-frame refresh and CBFC from periodic
	// credit adverts). Zero keeps the pure edge-triggered behaviour of
	// §5.1 and its Figure-19 overhead numbers.
	Refresh units.Time
}

// ceilingHeadroom is the buffer the practical GFC schemes keep above B_m: the
// final stage (and the time-based minimum rate) stay positive, so under a
// stopped drain the queue legitimately overshoots B_m by up to a feedback
// latency's worth of minimum-rate trickle; four MTUs absorb exactly that.
func ceilingHeadroom(mtu units.Size) units.Size { return 4 * mtu }

// OccupancyCeiling is the runtime ingress-occupancy ceiling of a channel whose
// rate mapping tops out at bm, in a buffer of the given size: B_m plus the
// headroom, clamped to the buffer. fits is false when the buffer clamps it —
// the losslessness argument then no longer holds.
func OccupancyCeiling(bm, buffer, mtu units.Size) (ceil units.Size, fits bool) {
	if ceil = bm + ceilingHeadroom(mtu); ceil > buffer {
		return buffer, false
	}
	return ceil, true
}

// Resolve returns c with the thresholds NewGFCBuffer installs on a channel
// with parameters p filled in — Bm (default: the buffer minus the
// OccupancyCeiling headroom), Ratio (default 1/2), B1 (default: the safe
// maximum of equation (1) generalised, Bm − Cτ/(1−r)) — and an error when B1
// exceeds that maximum. The values are returned even then, so
// analysis can reason about an unsafe configuration; resolving a resolved
// config re-validates the same thresholds, e.g. against another τ. This is
// the only place the defaults are decided: the bank, the fluid compiler
// and the analytic predictor all call it.
func (c GFCBufferConfig) Resolve(p Params) (GFCBufferConfig, error) {
	if c.Bm == 0 {
		c.Bm = p.Buffer - ceilingHeadroom(p.MTU)
	}
	if c.Ratio == 0 {
		c.Ratio = 0.5
	}
	bound := c.Bm - units.Size(float64(units.BytesIn(p.Capacity, p.Tau))/(1-c.Ratio))
	if c.B1 == 0 {
		c.B1 = bound
	}
	if c.B1 > bound {
		return c, fmt.Errorf(
			"flowcontrol: B1 %v exceeds safe bound %v (Bm−Cτ/(1−r), r=%v, τ=%v)",
			c.B1, bound, c.Ratio, p.Tau)
	}
	return c, nil
}

// NewGFCBuffer returns a Factory for buffer-based GFC. A stage table is
// immutable after construction and identical for every channel of one class,
// so a k-ary fat-tree's bank builds one table per class instead of one per
// channel.
func NewGFCBuffer(cfg GFCBufferConfig) Factory {
	return func(env Env, chans int) Bank {
		b := &gfcBufferBank{limiters: limiters{env: env, rl: make([]RateLimiter, chans)},
			cls: newClasses(chans, func(p Params) (stageClass, error) {
				c, err := cfg.Resolve(p)
				if err != nil {
					return stageClass{}, err
				}
				table, err := core.NewStageTableRatio(p.Capacity, c.Bm, c.B1, c.Ratio)
				gap := p.Tau
				if gap <= 0 {
					gap = units.Microsecond
				}
				return stageClass{table: table, gap: gap, refresh: c.Refresh}, err
			}),
			rx: make([]gfcBufferReceiver, chans)}
		b.tickFn, b.flushFn = b.tick, b.flush
		return b
	}
}

// gfcBufferBank is buffer-based GFC: a rate-gated sender whose rate is the
// stage table's for the last stage it heard, and the Message Generator.
// Messages are paced to at most one per τ: §4.2's overhead analysis ("in the
// worst case, feedback messages are generated every τ") assumes exactly this,
// and without it a queue flapping across a stage boundary would emit per
// packet. A crossing during the hold-off is coalesced into one deferred
// message carrying the then-current stage; the stage inequalities (eq. 1)
// budget one τ of reaction delay, so the deferral preserves the safety
// argument.
type gfcBufferBank struct {
	limiters
	cls classes[stageClass]
	rx  []gfcBufferReceiver
	// The refresh tick and the deferred emission, each one handler for
	// every receiver, bound once.
	tickFn, flushFn func(int32)
}

// stageClass is what buffer-based GFC resolves once per channel class.
type stageClass struct {
	table   *core.StageTable
	gap     units.Time // the emission pacing: τ, or 1 µs when τ is 0
	refresh units.Time // 0: pure edge-triggered (no loss repair)
}

// gfcBufferReceiver is one Message Generator's state, 24 bytes
// (TestBankRecordLayout).
type gfcBufferReceiver struct {
	lastQ    units.Size
	lastEmit units.Time
	sent     int32 // last stage reported upstream
	started  bool
	pending  bool
}

func (b *gfcBufferBank) Wire(rx, tx int, p Params) error {
	b.rl[tx] = RateLimiter{Capacity: p.Capacity, rate: p.Capacity}
	return b.cls.wire(rx, tx, p)
}

func (b *gfcBufferBank) Start() {
	for rx, k := range b.cls.rx {
		if k != 0 && b.cls.of[k].refresh > 0 {
			b.env.After(b.cls.of[k].refresh, b.tickFn, int32(rx))
		}
	}
}

// tick is the periodic refresh: re-advertise the current stage so a lost
// stage message costs at most one Refresh period of stale rate. Quiet
// channels stay quiet — until the first crossing there is nothing upstream
// could have lost, and re-advertising stage 0 forever would change the
// clean-run feedback overhead.
func (b *gfcBufferBank) tick(ch int32) {
	r, c := &b.rx[ch], &b.cls.of[b.cls.rx[ch]]
	if r.started && !r.pending {
		b.emit(int(ch), c.table.StageFor(r.lastQ))
	}
	b.env.After(c.refresh, b.tickFn, ch)
}

func (b *gfcBufferBank) observe(rx int, q units.Size) {
	r := &b.rx[rx]
	r.lastQ = q
	if r.pending {
		return // a deferred emission will report the latest stage
	}
	c := &b.cls.of[b.cls.rx[rx]]
	st := c.table.StageFor(q)
	if st == int(r.sent) {
		return
	}
	now := b.env.Now()
	if r.started && now-r.lastEmit < c.gap {
		r.pending = true
		b.env.After(r.lastEmit+c.gap-now, b.flushFn, int32(rx))
		return
	}
	b.emit(rx, st)
}

func (b *gfcBufferBank) flush(ch int32) {
	r := &b.rx[ch]
	r.pending = false
	if st := b.cls.of[b.cls.rx[ch]].table.StageFor(r.lastQ); st != int(r.sent) {
		b.emit(int(ch), st)
	}
}

func (b *gfcBufferBank) emit(rx, st int) {
	r := &b.rx[rx]
	r.sent = int32(st)
	r.started = true
	r.lastEmit = b.env.Now()
	b.env.Emit(rx, Message{Kind: KindStage, Stage: st})
}

func (b *gfcBufferBank) OnArrival(rx, _ int, _, occ units.Size)   { b.observe(rx, occ) }
func (b *gfcBufferBank) OnDeparture(rx, _ int, _, occ units.Size) { b.observe(rx, occ) }

func (b *gfcBufferBank) OnFeedback(tx int, m Message) {
	if m.Kind != KindStage {
		return
	}
	b.rl[tx].SetRate(b.cls.of[b.cls.tx[tx]].table.StageRate(m.Stage))
}

// Bound reports the stage table and its mapping ceiling B_m.
func (b *gfcBufferBank) Bound(rx int) (units.Size, *core.StageTable) {
	t := b.cls.of[b.cls.rx[rx]].table
	if t == nil {
		return 0, nil
	}
	return t.Bm, t
}

// GFCConceptualConfig configures the conceptual design of §4.1: feedback is
// (approximately) continuous — a message on every queue change — and the
// mapping function is the linear one of Figure 4(b). Impractical on real
// wires (the message rate is unbounded) but exactly what Figure 5 simulates.
type GFCConceptualConfig struct {
	// B0 is the activation threshold; zero derives the Theorem 4.1 safe
	// maximum Bm − 4Cτ.
	B0 units.Size
	// Bm is the mapping ceiling; zero means the buffer size.
	Bm units.Size
}

// Resolve returns c with the thresholds NewGFCConceptual installs on a
// channel with parameters p filled in — Bm (default: the buffer), B0 (default:
// the Theorem 4.1 safe maximum Bm − 4Cτ) — and an error unless 0 < B0 < Bm. The values are returned even then; see GFCBufferConfig.Resolve.
func (c GFCConceptualConfig) Resolve(p Params) (GFCConceptualConfig, error) {
	if c.Bm == 0 {
		c.Bm = p.Buffer
	}
	if c.B0 == 0 {
		c.B0 = core.ConceptualB0Bound(c.Bm, p.Capacity, p.Tau)
	}
	if c.B0 <= 0 || c.B0 >= c.Bm {
		return c, fmt.Errorf("flowcontrol: conceptual GFC needs 0 < B0 (%v) < Bm (%v); buffer too small for τ=%v",
			c.B0, c.Bm, p.Tau)
	}
	return c, nil
}

// NewGFCConceptual returns a Factory for conceptual GFC: the receiver
// reports every change of its queue, and the sender maps the reported queue
// through the continuous mapping function.
func NewGFCConceptual(cfg GFCConceptualConfig) Factory {
	return func(env Env, chans int) Bank {
		return &conceptualBank{limiters: limiters{env: env, rl: make([]RateLimiter, chans)},
			cls: newClasses(chans, func(p Params) (core.ContinuousMapping, error) {
				c, err := cfg.Resolve(p)
				return core.ContinuousMapping{C: p.Capacity, B0: c.B0, Bm: c.Bm}, err
			}),
			rx: make([]conceptualReceiver, chans)}
	}
}

type conceptualBank struct {
	limiters
	cls classes[core.ContinuousMapping]
	rx  []conceptualReceiver
}

type conceptualReceiver struct {
	last units.Size
	sent bool
}

func (b *conceptualBank) Wire(rx, tx int, p Params) error {
	b.rl[tx] = RateLimiter{Capacity: p.Capacity, rate: p.Capacity}
	return b.cls.wire(rx, tx, p)
}

func (b *conceptualBank) Start() {}

func (b *conceptualBank) observe(rx int, q units.Size) {
	r := &b.rx[rx]
	if r.sent && q == r.last {
		return
	}
	r.sent = true
	r.last = q
	b.env.Emit(rx, Message{Kind: KindQueue, Queue: q})
}

func (b *conceptualBank) OnArrival(rx, _ int, _, occ units.Size)   { b.observe(rx, occ) }
func (b *conceptualBank) OnDeparture(rx, _ int, _, occ units.Size) { b.observe(rx, occ) }

func (b *conceptualBank) OnFeedback(tx int, m Message) {
	if m.Kind != KindQueue {
		return
	}
	b.rl[tx].SetRate(b.cls.of[b.cls.tx[tx]].Rate(m.Queue))
}

// Bound reports the continuous mapping's ceiling B_m.
func (b *conceptualBank) Bound(rx int) (units.Size, *core.StageTable) {
	return b.cls.of[b.cls.rx[rx]].Bm, nil
}
