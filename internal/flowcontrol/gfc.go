package flowcontrol

import (
	"fmt"
	"sync"

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
// the only place the defaults are decided: the factory, the fluid compiler
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

// stageTableKey identifies a stage-table construction; tables are pure
// functions of it.
type stageTableKey struct {
	c      units.Rate
	bm, b1 units.Size
	ratio  float64
}

// NewGFCBuffer returns a Factory for buffer-based GFC. The factory memoizes
// stage tables per distinct (capacity, Bm, B1, ratio): a table is immutable
// after construction and identical for every channel with the same link
// parameters, so a k-ary fat-tree wires thousands of controllers from a
// handful of tables instead of building one each. The mutex makes the cache
// safe when one Factory value is shared across sweep workers building
// networks concurrently.
func NewGFCBuffer(cfg GFCBufferConfig) Factory {
	var (
		mu     sync.Mutex
		tables map[stageTableKey]*core.StageTable
	)
	return func(p Params, env Env) (Controller, error) {
		if err := p.Validate(); err != nil {
			return Controller{}, err
		}
		cfg, err := cfg.Resolve(p)
		if err != nil {
			return Controller{}, err
		}
		key := stageTableKey{c: p.Capacity, bm: cfg.Bm, b1: cfg.B1, ratio: cfg.Ratio}
		mu.Lock()
		table, ok := tables[key]
		mu.Unlock()
		if !ok {
			table, err = core.NewStageTableRatio(p.Capacity, cfg.Bm, cfg.B1, cfg.Ratio)
			if err != nil {
				return Controller{}, err
			}
			mu.Lock()
			if tables == nil {
				tables = make(map[stageTableKey]*core.StageTable)
			}
			tables[key] = table
			mu.Unlock()
		}
		return Controller{
			Sender:   &gfcBufferSender{limited: newLimited(p.Capacity, env.Clock()), table: table},
			Receiver: &gfcBufferReceiver{p: p, table: table, env: env, refresh: cfg.Refresh},
		}, nil
	}
}

// limited is the gate of the rate-gated senders (RateGated): a RateLimiter
// read at the clock's time. rl is the sender's own limiter until a simulator
// binds it into its per-channel storage.
type limited struct {
	rl    *RateLimiter
	clock Clock
}

func newLimited(capacity units.Rate, clock Clock) limited {
	return limited{rl: NewRateLimiter(capacity), clock: clock}
}

func (l *limited) TrySend(units.Size) (bool, units.Time) { return l.rl.Gate(l.clock.Now()) }

func (l *limited) OnSent(s units.Size, dur units.Time) { l.rl.OnPacket(l.clock.Now(), dur, s) }

func (l *limited) Rate() units.Rate { return l.rl.Rate() }

func (l *limited) BindLimiter(slot *RateLimiter) {
	*slot = *l.rl
	l.rl = slot
}

type gfcBufferSender struct {
	limited
	table *core.StageTable
}

func (s *gfcBufferSender) OnFeedback(m Message) {
	if m.Kind != KindStage {
		return
	}
	s.rl.SetRate(s.table.StageRate(m.Stage))
}

// Ceiling returns the stage table's mapping ceiling B_m (Bounded).
func (s *gfcBufferSender) Ceiling() units.Size { return s.table.Bm }

// StageTable exposes the mapping table for validation (Staged).
func (s *gfcBufferSender) StageTable() *core.StageTable { return s.table }

// gfcBufferReceiver is the buffer-based Message Generator. Messages are
// paced to at most one per τ: §4.2's overhead analysis ("in the worst case,
// feedback messages are generated every τ") assumes exactly this, and
// without it a queue flapping across a stage boundary would emit per packet.
// A crossing during the hold-off is coalesced into one deferred message
// carrying the then-current stage; the stage inequalities (eq. 1) budget one
// τ of reaction delay, so the deferral preserves the safety argument.
type gfcBufferReceiver struct {
	p       Params
	table   *core.StageTable
	env     Env
	refresh units.Time // 0: pure edge-triggered (no loss repair)

	sent     int // last stage reported upstream
	lastQ    units.Size
	lastEmit units.Time
	started  bool
	pending  bool
	// tick and flush as func values, bound once each, on first use: a method
	// value made at each After call would allocate per period and deferral.
	tickFn, flushFn func(int32)
}

func (r *gfcBufferReceiver) Start() {
	if r.refresh > 0 {
		r.tickFn = r.tick
		r.env.After(r.refresh, r.tickFn, 0)
	}
}

// tick is the periodic refresh: re-advertise the current stage so a lost
// stage message costs at most one Refresh period of stale rate. Quiet
// channels stay quiet — until the first crossing there is nothing upstream
// could have lost, and re-advertising stage 0 forever would change the
// clean-run feedback overhead.
func (r *gfcBufferReceiver) tick(int32) {
	if r.started && !r.pending {
		r.emit(r.table.StageFor(r.lastQ))
	}
	r.env.After(r.refresh, r.tickFn, 0)
}

func (r *gfcBufferReceiver) gap() units.Time {
	if r.p.Tau > 0 {
		return r.p.Tau
	}
	return units.Microsecond
}

func (r *gfcBufferReceiver) observe(q units.Size) {
	r.lastQ = q
	if r.pending {
		return // a deferred emission will report the latest stage
	}
	st := r.table.StageFor(q)
	if st == r.sent {
		return
	}
	now := r.env.Clock().Now()
	if r.started && now-r.lastEmit < r.gap() {
		r.pending = true
		if r.flushFn == nil {
			r.flushFn = r.flush
		}
		r.env.After(r.lastEmit+r.gap()-now, r.flushFn, 0)
		return
	}
	r.emit(st)
}

func (r *gfcBufferReceiver) flush(int32) {
	r.pending = false
	if st := r.table.StageFor(r.lastQ); st != r.sent {
		r.emit(st)
	}
}

func (r *gfcBufferReceiver) emit(st int) {
	r.sent = st
	r.started = true
	r.lastEmit = r.env.Clock().Now()
	r.env.Emit(Message{Kind: KindStage, Stage: st})
}

func (r *gfcBufferReceiver) OnArrival(_, q units.Size)   { r.observe(q) }
func (r *gfcBufferReceiver) OnDeparture(_, q units.Size) { r.observe(q) }

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

// NewGFCConceptual returns a Factory for conceptual GFC.
func NewGFCConceptual(cfg GFCConceptualConfig) Factory {
	return func(p Params, env Env) (Controller, error) {
		if err := p.Validate(); err != nil {
			return Controller{}, err
		}
		cfg, err := cfg.Resolve(p)
		if err != nil {
			return Controller{}, err
		}
		m := core.ContinuousMapping{C: p.Capacity, B0: cfg.B0, Bm: cfg.Bm}
		return Controller{
			Sender:   &gfcContinuousSender{limited: newLimited(p.Capacity, env.Clock()), mapping: m},
			Receiver: &gfcConceptualReceiver{env: env},
		}, nil
	}
}

// gfcContinuousSender maps a queue-length signal through the continuous
// mapping function; shared by conceptual GFC (signal = reported queue) and
// time-based GFC (signal = Bm − remaining credit).
type gfcContinuousSender struct {
	limited
	mapping core.ContinuousMapping
}

func (s *gfcContinuousSender) OnFeedback(m Message) {
	if m.Kind != KindQueue {
		return
	}
	s.rl.SetRate(s.mapping.Rate(m.Queue))
}

// Ceiling returns the continuous mapping's ceiling B_m (Bounded).
func (s *gfcContinuousSender) Ceiling() units.Size { return s.mapping.Bm }

type gfcConceptualReceiver struct {
	env  Env
	last units.Size
	sent bool
}

func (r *gfcConceptualReceiver) Start() {}

func (r *gfcConceptualReceiver) observe(q units.Size) {
	if r.sent && q == r.last {
		return
	}
	r.sent = true
	r.last = q
	r.env.Emit(Message{Kind: KindQueue, Queue: q})
}

func (r *gfcConceptualReceiver) OnArrival(_, q units.Size)   { r.observe(q) }
func (r *gfcConceptualReceiver) OnDeparture(_, q units.Size) { r.observe(q) }
