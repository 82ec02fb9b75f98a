package flowcontrol

import (
	"math"
	"testing"
	"testing/quick"
	"unsafe"

	"github.com/gfcsim/gfc/internal/eventsim"
	"github.com/gfcsim/gfc/internal/units"
)

// fakeEnv runs a bank against a real event engine and records emitted
// messages, optionally forwarding them to a sender after a delay.
type fakeEnv struct {
	eng     *eventsim.Engine
	sent    []Message
	forward interface{ OnFeedback(Message) }
	delay   units.Time
}

func newFakeEnv() *fakeEnv { return &fakeEnv{eng: eventsim.New()} }

func (e *fakeEnv) Now() units.Time { return e.eng.Now() }
func (e *fakeEnv) After(d units.Time, fn func(int32), ch int32) {
	e.eng.After(d, fn, ch)
}
func (e *fakeEnv) Emit(_ int, m Message) { e.sent = append(e.sent, m); e.deliver(m) }
func (e *fakeEnv) deliver(m Message) {
	if e.forward == nil {
		return
	}
	e.eng.After(e.delay, func(int32) { e.forward.OnFeedback(m) }, 0)
}

// channel is the one channel of a two-channel test bank, its receiver on
// channel 0 and its sender on channel 1, driven through one half at a time,
// queue 0 of each.
type channel struct {
	bank     Bank
	Sender   sender
	Receiver receiver
}

type sender struct{ b Bank }

func (s sender) TrySend(sz units.Size) (bool, units.Time) { return s.b.TrySend(1, 0, sz) }
func (s sender) OnSent(sz units.Size, dur units.Time)     { s.b.OnSent(1, sz, dur) }
func (s sender) OnFeedback(m Message)                     { s.b.OnFeedback(1, m) }
func (s sender) Rate() units.Rate                         { return s.b.Rate(1) }

type receiver struct{ b Bank }

func (r receiver) Start()                      { r.b.Start() }
func (r receiver) OnArrival(s, q units.Size)   { r.b.OnArrival(0, 0, s, q) }
func (r receiver) OnDeparture(s, q units.Size) { r.b.OnDeparture(0, 0, s, q) }

// wire builds f's bank for two channels on env and wires the test channel
// with p.
func wire(f Factory, p Params, env Env) (channel, error) {
	b := f(env, 2)
	return channel{bank: b, Sender: sender{b}, Receiver: receiver{b}}, b.Wire(0, 1, p)
}

func testParams() Params {
	return Params{
		Capacity: 10 * units.Gbps,
		Buffer:   1000 * units.KB,
		MTU:      1500 * units.Byte,
		Tau:      10 * units.Microsecond,
	}
}

func TestParamsValidate(t *testing.T) {
	good := testParams()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Params{
		{Capacity: 0, Buffer: 1, MTU: 1},
		{Capacity: 1, Buffer: 0, MTU: 1},
		{Capacity: 1, Buffer: 1, MTU: 0},
		{Capacity: 1, Buffer: 1, MTU: 1, Tau: -1},
	}
	for i, p := range bad {
		if p.Validate() == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindPause: "PAUSE", KindResume: "RESUME", KindStage: "STAGE",
		KindCredit: "CREDIT", KindQueue: "QUEUE", KindQueuePause: "QPAUSE",
		KindQueueResume: "QRESUME", Kind(99): "kind(99)",
	} {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", k, got, want)
		}
	}
}

// --- PFC ---

func TestRecommendedPFC(t *testing.T) {
	p := testParams()
	cfg, err := RecommendedPFC(p)
	if err != nil {
		t.Fatal(err)
	}
	// headroom = Cτ = 12500B; XOFF = 987.5KB; XON = XOFF − 3KB.
	if cfg.XOFF != p.Buffer-12500 {
		t.Errorf("XOFF = %v", cfg.XOFF)
	}
	if cfg.XON != cfg.XOFF-3000 {
		t.Errorf("XON = %v", cfg.XON)
	}
	if err := cfg.Validate(p); err != nil {
		t.Error(err)
	}
}

// RecommendedPFC must reject buffers that cannot host the Cτ headroom plus
// a positive XON: at or below Cτ + 2·MTU the derived thresholds would be
// non-positive. The boundary cases are Buffer = Cτ, Cτ + MTU, Cτ + 2·MTU
// (all invalid) and the first valid size just above.
func TestRecommendedPFCSmallBuffer(t *testing.T) {
	p := testParams()
	headroom := units.BytesIn(p.Capacity, p.Tau) // Cτ = 12500B
	for _, buf := range []units.Size{
		headroom,           // XOFF = 0
		headroom + p.MTU,   // XON < 0
		headroom + 2*p.MTU, // XON = 0
	} {
		p.Buffer = buf
		if cfg, err := RecommendedPFC(p); err == nil {
			t.Errorf("buffer %v accepted: %+v", buf, cfg)
		}
	}
	p.Buffer = headroom + 2*p.MTU + 1
	cfg, err := RecommendedPFC(p)
	if err != nil {
		t.Fatalf("minimal viable buffer rejected: %v", err)
	}
	if cfg.XON != 1 || cfg.XOFF != 2*p.MTU+1 {
		t.Errorf("thresholds at minimal buffer: %+v", cfg)
	}
}

func TestPFCConfigValidate(t *testing.T) {
	p := testParams()
	bad := []PFCConfig{
		{XOFF: 0, XON: 0},
		{XOFF: p.Buffer + 1, XON: 1},
		{XOFF: 500 * units.KB, XON: 600 * units.KB},
		{XOFF: p.Buffer, XON: p.Buffer - 1}, // no headroom
	}
	for i, cfg := range bad {
		if cfg.Validate(p) == nil {
			t.Errorf("case %d accepted: %+v", i, cfg)
		}
	}
}

func TestPFCPauseResume(t *testing.T) {
	env := newFakeEnv()
	p := testParams()
	cfg := PFCConfig{XOFF: 800 * units.KB, XON: 797 * units.KB}
	c, err := wire(NewPFC(cfg), p, env)
	if err != nil {
		t.Fatal(err)
	}
	env.forward = c.Sender
	c.Receiver.Start()

	if ok, _ := c.Sender.TrySend(1500); !ok {
		t.Fatal("PFC sender initially blocked")
	}
	if got := c.Sender.Rate(); got != p.Capacity {
		t.Fatalf("initial rate %v", got)
	}

	// Fill past XOFF.
	c.Receiver.OnArrival(1500, 800*units.KB)
	env.eng.Run(units.Never)
	if len(env.sent) != 1 || env.sent[0].Kind != KindPause {
		t.Fatalf("messages = %+v, want one PAUSE", env.sent)
	}
	if ok, wake := c.Sender.TrySend(1500); ok || wake != units.Never {
		t.Fatal("sender not paused after PAUSE")
	}
	if c.Sender.Rate() != 0 {
		t.Fatal("paused rate not zero")
	}

	// Stay above XON: no RESUME, no duplicate PAUSE.
	c.Receiver.OnArrival(1500, 900*units.KB)
	c.Receiver.OnDeparture(1500, 799*units.KB)
	env.eng.Run(units.Never)
	if len(env.sent) != 1 {
		t.Fatalf("spurious messages: %+v", env.sent)
	}

	// Drop to XON: RESUME.
	c.Receiver.OnDeparture(1500, 797*units.KB)
	env.eng.Run(units.Never)
	if len(env.sent) != 2 || env.sent[1].Kind != KindResume {
		t.Fatalf("messages = %+v, want PAUSE,RESUME", env.sent)
	}
	if ok, _ := c.Sender.TrySend(1500); !ok {
		t.Fatal("sender still paused after RESUME")
	}
}

func TestPFCRejectsBadParams(t *testing.T) {
	env := newFakeEnv()
	if _, err := wire(NewPFC(PFCConfig{XOFF: 1, XON: 1}), Params{}, env); err == nil {
		t.Fatal("invalid Params accepted")
	}
	p := testParams()
	if _, err := wire(NewPFC(PFCConfig{XOFF: p.Buffer, XON: 1}), p, env); err == nil {
		t.Fatal("headroom-free config accepted")
	}
}

// --- CBFC ---

func TestBlocks(t *testing.T) {
	cases := []struct {
		s    units.Size
		want int64
	}{
		// A zero-size (header-only) packet must still consume a block, or
		// credit accounting lets it bypass flow control entirely.
		{0, 1},
		{1, 1}, {64, 1}, {65, 2}, {1500, 24},
	}
	for _, c := range cases {
		if got := Blocks(c.s); got != c.want {
			t.Errorf("Blocks(%d) = %d, want %d", c.s, got, c.want)
		}
	}
}

func TestRecommendedCBFCPeriod(t *testing.T) {
	// 65535B at 10G ≈ 52.4µs, the paper's testbed period.
	got := RecommendedCBFCPeriod(10 * units.Gbps)
	if got < 52*units.Microsecond || got > 53*units.Microsecond {
		t.Errorf("period = %v, want ≈52.4µs", got)
	}
}

func TestCBFCCreditLifecycle(t *testing.T) {
	env := newFakeEnv()
	p := testParams()
	p.Buffer = 64 * 10 * units.Byte // 10 blocks
	c, err := wire(NewCBFC(CBFCConfig{Period: 10 * units.Microsecond}), p, env)
	if err != nil {
		t.Fatal(err)
	}
	env.forward = c.Sender

	// Before init no sending.
	if ok, _ := c.Sender.TrySend(64); ok {
		t.Fatal("sent before credit init")
	}
	c.Receiver.Start()
	env.eng.Run(0) // deliver initial advertisement
	if ok, _ := c.Sender.TrySend(64 * 10); !ok {
		t.Fatal("cannot send full allocation")
	}
	if ok, _ := c.Sender.TrySend(64*10 + 1); ok {
		t.Fatal("over-allocation allowed")
	}
	// Consume all credits.
	c.Sender.OnSent(64*10, 0)
	if ok, _ := c.Sender.TrySend(64); ok {
		t.Fatal("send allowed with zero credits")
	}
	if c.Sender.Rate() != 0 {
		t.Fatal("rate not zero with exhausted credits")
	}
	// Buffer drains 5 blocks; next periodic advert extends FCCL.
	c.Receiver.OnDeparture(64*5, 0)
	env.eng.Run(10 * units.Microsecond)
	if ok, _ := c.Sender.TrySend(64 * 5); !ok {
		t.Fatal("freed credits not granted")
	}
	if ok, _ := c.Sender.TrySend(64 * 6); ok {
		t.Fatal("more credits than freed")
	}
}

func TestCBFCStaleAdvertIgnored(t *testing.T) {
	env := newFakeEnv()
	p := testParams()
	c, err := wire(NewCBFC(CBFCConfig{Period: 10 * units.Microsecond}), p, env)
	if err != nil {
		t.Fatal(err)
	}
	s := &c.bank.(*creditBank).tx[1]
	c.Sender.OnFeedback(Message{Kind: KindCredit, FCCL: 100})
	c.Sender.OnFeedback(Message{Kind: KindCredit, FCCL: 50}) // stale
	if s.fccl != 100 {
		t.Fatalf("fccl = %d, want 100", s.fccl)
	}
	c.Sender.OnFeedback(Message{Kind: KindPause}) // wrong kind ignored
	if s.fccl != 100 {
		t.Fatal("non-credit message changed fccl")
	}
}

func TestCBFCPeriodicAdverts(t *testing.T) {
	env := newFakeEnv()
	p := testParams()
	c, err := wire(NewCBFC(CBFCConfig{Period: 10 * units.Microsecond}), p, env)
	if err != nil {
		t.Fatal(err)
	}
	c.Receiver.Start()
	env.eng.Run(95 * units.Microsecond)
	// initial + 9 periodic.
	if got := len(env.sent); got != 10 {
		t.Fatalf("adverts = %d, want 10", got)
	}
	for _, m := range env.sent {
		if m.Kind != KindCredit {
			t.Fatalf("unexpected kind %v", m.Kind)
		}
	}
}

func TestCBFCBadPeriod(t *testing.T) {
	env := newFakeEnv()
	if _, err := wire(NewCBFC(CBFCConfig{}), testParams(), env); err == nil {
		t.Fatal("zero period accepted")
	}
}

// --- Rate limiter ---

func TestRateLimiterBasics(t *testing.T) {
	rl := NewRateLimiter(10 * units.Gbps)
	if rl.Rate() != 10*units.Gbps {
		t.Fatal("initial rate not line rate")
	}
	if rl.NextAllowed() != 0 {
		t.Fatal("fresh limiter blocks")
	}
	// Send a 1500B packet (1.2µs) at line rate: immediately allowed again.
	rl.OnSent(1200, 1200)
	if got := rl.NextAllowed(); got != 1200 {
		t.Fatalf("NextAllowed at line rate = %v", got)
	}
	// Quarter rate: R_c = (C−R)/R · R_l = 3·1200ns, stretched by the 1 %
	// slack (TestRateLimiterSlack) to 3636.
	rl.SetRate(2.5 * units.Gbps)
	if got := rl.NextAllowed(); got != 1200+3636 {
		t.Fatalf("NextAllowed at C/4 = %v, want 4836", got)
	}
}

func TestRateLimiterClamps(t *testing.T) {
	rl := NewRateLimiter(10 * units.Gbps)
	rl.SetRate(100 * units.Gbps)
	if rl.Rate() != 10*units.Gbps {
		t.Fatal("rate above capacity not clamped")
	}
	rl.SetRate(0)
	if rl.Rate() != DefaultMinRate {
		t.Fatalf("zero rate clamped to %v, want %v", rl.Rate(), DefaultMinRate)
	}
	rl.SetRate(-5)
	if rl.Rate() != DefaultMinRate {
		t.Fatal("negative rate not clamped")
	}
}

// Property: over many packets, the achieved rate matches R_r within one
// packet of slack.
func TestRateLimiterLongRunRate(t *testing.T) {
	f := func(div uint8) bool {
		k := int(div%10) + 1
		c := 10 * units.Gbps
		target := c / units.Rate(int(1)<<k)
		rl := NewRateLimiter(c)
		rl.SetRate(target)
		var now units.Time
		const pkt = 1500 * units.Byte
		dur := units.TransmissionTime(pkt, c)
		var sent units.Size
		for i := 0; i < 300; i++ {
			na := rl.NextAllowed()
			if na > now {
				now = na
			}
			now += dur
			rl.OnSent(now, dur)
			sent += pkt
		}
		achieved := units.RateOf(sent, now)
		ratio := float64(achieved) / float64(target)
		return ratio > 0.99 && ratio < 1.02
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// --- Buffer-based GFC ---

func newBufferGFC(t *testing.T, env *fakeEnv) channel {
	t.Helper()
	p := testParams()
	c, err := wire(NewGFCBuffer(GFCBufferConfig{B1: 750 * units.KB}), p, env)
	if err != nil {
		t.Fatal(err)
	}
	env.forward = c.Sender
	return c
}

func TestGFCBufferStageMessages(t *testing.T) {
	env := newFakeEnv()
	c := newBufferGFC(t, env)
	c.Receiver.Start()

	// Below B1: no messages.
	c.Receiver.OnArrival(1500, 100*units.KB)
	env.eng.Run(units.Never)
	if len(env.sent) != 0 {
		t.Fatalf("message below B1: %+v", env.sent)
	}
	// Cross into stage 1.
	c.Receiver.OnArrival(1500, 750*units.KB)
	env.eng.Run(units.Never)
	if len(env.sent) != 1 || env.sent[0].Stage != 1 {
		t.Fatalf("messages = %+v", env.sent)
	}
	if got := c.Sender.Rate(); got != 5*units.Gbps {
		t.Fatalf("stage-1 rate = %v, want 5Gbps", got)
	}
	// Within stage 1: silent.
	c.Receiver.OnArrival(1500, 800*units.KB)
	env.eng.Run(units.Never)
	if len(env.sent) != 1 {
		t.Fatal("duplicate stage message")
	}
	// Stage 2 at 875KB.
	c.Receiver.OnArrival(1500, 875*units.KB)
	env.eng.Run(units.Never)
	if len(env.sent) != 2 || env.sent[1].Stage != 2 {
		t.Fatalf("messages = %+v", env.sent)
	}
	if got := c.Sender.Rate(); got != 2.5*units.Gbps {
		t.Fatalf("stage-2 rate = %v", got)
	}
	// Drain back below B1: stage 0, line rate.
	c.Receiver.OnDeparture(1500, 100*units.KB)
	env.eng.Run(units.Never)
	if got := env.sent[len(env.sent)-1].Stage; got != 0 {
		t.Fatalf("final stage = %d", got)
	}
	if got := c.Sender.Rate(); got != 10*units.Gbps {
		t.Fatalf("recovered rate = %v", got)
	}
}

func TestGFCBufferRateNeverZero(t *testing.T) {
	env := newFakeEnv()
	c := newBufferGFC(t, env)
	// Slam the queue to the ceiling.
	c.Receiver.OnArrival(1500, 2000*units.KB)
	env.eng.Run(units.Never)
	if got := c.Sender.Rate(); got <= 0 {
		t.Fatalf("rate %v at full buffer; hold-and-wait not eliminated", got)
	}
	// TrySend never returns Never: always a finite wake time.
	c.Sender.OnSent(1500, 1200)
	if ok, wake := c.Sender.TrySend(1500); !ok && wake == units.Never {
		t.Fatal("buffer-based GFC blocked without wake time")
	}
}

func TestGFCBufferPacing(t *testing.T) {
	env := newFakeEnv()
	c := newBufferGFC(t, env)
	c.Receiver.OnArrival(1500, 750*units.KB) // stage 1 → C/2
	env.eng.Run(units.Never)
	// After sending a packet, TrySend must block for one extra duration
	// (plus the limiter's slack).
	c.Sender.OnSent(1500, 1200)
	ok, wake := c.Sender.TrySend(1500)
	if ok {
		t.Fatal("send allowed immediately at C/2")
	}
	want := env.Now() + 1200
	if wake < want || wake > want+want/50 {
		t.Fatalf("wake = %v, want ≈now+1200", wake)
	}
}

func TestRateLimiterSlack(t *testing.T) {
	rl := NewRateLimiter(10 * units.Gbps)
	rl.SetRate(5 * units.Gbps)
	rl.OnSent(1200, 1200)
	// Halve the rate: R_c = (C−R)/R · R_l = 1·1200ns, stretched by
	// (1+DefaultSlack): 1200·1.01 = 1212 extra.
	if got := rl.NextAllowed(); got != 1200+1212 {
		t.Fatalf("NextAllowed with slack = %v, want 2412", got)
	}
}

func TestGFCBufferUnsafeB1Rejected(t *testing.T) {
	env := newFakeEnv()
	p := testParams() // 2Cτ = 25KB → bound 975KB
	if _, err := wire(NewGFCBuffer(GFCBufferConfig{B1: 990 * units.KB}), p, env); err == nil {
		t.Fatal("unsafe B1 accepted")
	}
}

func TestGFCBufferDefaultB1(t *testing.T) {
	env := newFakeEnv()
	p := testParams()
	c, err := wire(NewGFCBuffer(GFCBufferConfig{}), p, env)
	if err != nil {
		t.Fatal(err)
	}
	env.forward = c.Sender
	// Default Bm = Buffer − 4·MTU = 994KB; default B1 = Bm − 2Cτ = 969KB.
	c.Receiver.OnArrival(1500, 968*units.KB)
	env.eng.Run(units.Never)
	if len(env.sent) != 0 {
		t.Fatal("stage fired below default B1")
	}
	c.Receiver.OnArrival(1500, 969*units.KB)
	env.eng.Run(units.Never)
	if len(env.sent) != 1 {
		t.Fatal("stage did not fire at default B1")
	}
}

// --- Conceptual GFC ---

func TestGFCConceptualMapping(t *testing.T) {
	env := newFakeEnv()
	p := Params{Capacity: 10 * units.Gbps, Buffer: 100 * units.KB,
		MTU: 1500, Tau: 25 * units.Microsecond}
	// Figure 5 parameters: B0=50KB, Bm=100KB.
	c, err := wire(NewGFCConceptual(GFCConceptualConfig{B0: 50 * units.KB}), p, env)
	if err != nil {
		t.Fatal(err)
	}
	env.forward = c.Sender
	c.Receiver.OnArrival(1500, 75*units.KB)
	env.eng.Run(units.Never)
	if got := c.Sender.Rate(); got != 5*units.Gbps {
		t.Fatalf("rate at 75KB = %v, want 5Gbps (Fig 5 steady state)", got)
	}
	// Every queue change emits a message (continuous assumption).
	n := len(env.sent)
	c.Receiver.OnDeparture(1500, 74*units.KB)
	env.eng.Run(units.Never)
	if len(env.sent) != n+1 {
		t.Fatal("conceptual GFC did not emit on queue change")
	}
	// Same value twice: deduplicated.
	c.Receiver.OnArrival(0, 74*units.KB)
	if len(env.sent) != n+1 {
		t.Fatal("duplicate queue value emitted")
	}
}

func TestGFCConceptualTooSmallBuffer(t *testing.T) {
	env := newFakeEnv()
	p := Params{Capacity: 10 * units.Gbps, Buffer: 10 * units.KB,
		MTU: 1500, Tau: 25 * units.Microsecond} // 4Cτ = 125KB > buffer
	if _, err := wire(NewGFCConceptual(GFCConceptualConfig{}), p, env); err == nil {
		t.Fatal("impossible conceptual config accepted")
	}
}

// --- Time-based GFC ---

func TestGFCTimeRateFromCredits(t *testing.T) {
	env := newFakeEnv()
	p := testParams()
	cfg := GFCTimeConfig{Period: 52400 * units.Nanosecond, B0: 492 * units.KB, Bm: 1000 * units.KB}
	c, err := wire(NewGFCTime(cfg), p, env)
	if err != nil {
		t.Fatal(err)
	}
	env.forward = c.Sender
	if ok, _ := c.Sender.TrySend(64); ok {
		t.Fatal("time-based GFC sent before init")
	}
	if c.Sender.Rate() != 0 {
		t.Fatal("pre-init rate not 0")
	}
	c.Receiver.Start()
	env.eng.Run(0)
	// Full buffer advertised → remaining = Bm → q proxy 0 → line rate.
	if got := c.Sender.Rate(); got != 10*units.Gbps {
		t.Fatalf("initial rate = %v", got)
	}
	// Sender consumes half the credit without the receiver freeing any:
	// remaining = Bm/2 = 500KB → q = 500KB > B0 → mapped rate
	// C·(Bm−q)/(Bm−B0) = 10G·500/508 ≈ 9.84G.
	s := &c.bank.(*creditBank).tx[1]
	c.Sender.OnSent(500*units.KB, 400*units.Microsecond)
	c.Sender.OnFeedback(Message{Kind: KindCredit, FCCL: s.fccl}) // re-evaluate
	got := c.Sender.Rate()
	if got <= 9.8*units.Gbps || got >= 9.9*units.Gbps {
		t.Fatalf("rate = %v, want ≈9.84Gbps", got)
	}
}

func TestGFCTimeRateNeverZero(t *testing.T) {
	// §5.2: the Rate Adjuster replaces the credit gate entirely; even
	// with the downstream buffer fully consumed the sender keeps a
	// positive (floor) rate — hold-and-wait eliminated.
	env := newFakeEnv()
	p := testParams()
	c, err := wire(NewGFCTime(GFCTimeConfig{B0: 492 * units.KB}), p, env)
	if err != nil {
		t.Fatal(err)
	}
	env.forward = c.Sender
	c.Receiver.Start()
	env.eng.Run(0)
	s := &c.bank.(*creditBank).tx[1]
	// Consume the entire advertised credit without any drain.
	c.Sender.OnSent(p.Buffer, units.Millisecond)
	c.Sender.OnFeedback(Message{Kind: KindCredit, FCCL: s.fccl})
	if got := c.Sender.Rate(); got <= 0 {
		t.Fatalf("rate %v at exhausted credit; hold-and-wait reintroduced", got)
	}
	if ok, wake := c.Sender.TrySend(1500); !ok && wake == units.Never {
		t.Fatal("time-based GFC blocked without a finite wake")
	}
}

// TestRateGatedBankLimiters: each rate-gated bank exposes its senders'
// limiters, and its TrySend is the limiter's gate — GFC-time's link-init hold
// included — read in the slice a simulator reads in place: a packet recorded
// in the slot gates the sender, feedback sets the slot's rate, and OnSent
// records into the slot.
func TestRateGatedBankLimiters(t *testing.T) {
	for _, tc := range []struct {
		name string
		f    Factory
		fb   Message
	}{
		{"gfc-buffer", NewGFCBuffer(GFCBufferConfig{}), Message{Kind: KindStage, Stage: 3}},
		{"gfc-time", NewGFCTime(GFCTimeConfig{}), Message{Kind: KindCredit, FCCL: 10}},
		{"gfc-conceptual", NewGFCConceptual(GFCConceptualConfig{}), Message{Kind: KindQueue, Queue: 990 * units.KB}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := newFakeEnv()
			c, err := wire(tc.f, testParams(), env)
			if err != nil {
				t.Fatal(err)
			}
			rls := c.bank.Limiters()
			if len(rls) != 2 {
				t.Fatalf("%T exposes %d limiters for 2 channels", c.bank, len(rls))
			}
			slot := &rls[1]
			same := func(when string) {
				t.Helper()
				ok, wake := c.Sender.TrySend(1500)
				if gotOK, gotWake := slot.Gate(env.eng.Now()); ok != gotOK || wake != gotWake {
					t.Fatalf("%s: TrySend (%v, %v), slot (%v, %v)", when, ok, wake, gotOK, gotWake)
				}
			}
			same("before feedback")
			if held := tc.name == "gfc-time"; held != (slot.NextAllowed() == units.Never) {
				t.Fatalf("limiter held = %v before the first feedback", !held)
			}
			c.Sender.OnFeedback(tc.fb)
			if slot.Rate() != c.Sender.Rate() || slot.Rate() >= testParams().Capacity {
				t.Fatalf("feedback set the sender's rate %v, the slot's %v", c.Sender.Rate(), slot.Rate())
			}
			slot.OnPacket(env.eng.Now(), 1200, 1500)
			same("after a packet recorded in the slot")
			if ok, _ := c.Sender.TrySend(1500); ok {
				t.Fatal("a slowed limiter allowed a packet right after the last one")
			}
			c.Sender.OnSent(1500, 1200)
			if slot.blocks != 2*Blocks(1500) {
				t.Fatalf("slot counted %d blocks for two packets", slot.blocks)
			}
		})
	}
}

func TestGFCTimeDefaultsDerived(t *testing.T) {
	env := newFakeEnv()
	p := testParams()
	c, err := wire(NewGFCTime(GFCTimeConfig{}), p, env)
	if err != nil {
		t.Fatal(err)
	}
	_ = c
	// A buffer smaller than the Theorem 5.1 headroom must be rejected.
	p.Buffer = 50 * units.KB
	if _, err := wire(NewGFCTime(GFCTimeConfig{}), p, env); err == nil {
		t.Fatal("undersized buffer accepted")
	}
}

// --- BFC ---

// explicitBFC is a BFC Factory with cfg's thresholds on every channel class.
// A bank needs a positive queue count to be built at all; a non-positive one
// is Validate's to reject when the channel is wired.
func explicitBFC(cfg BFCConfig) Factory {
	return newBFC(max(cfg.Queues, 1), func(p Params) (BFCConfig, error) {
		return cfg, cfg.Validate(p)
	})
}

func TestRecommendedBFC(t *testing.T) {
	p := testParams()
	cfg, err := RecommendedBFC(p, 8)
	if err != nil {
		t.Fatal(err)
	}
	// 1000KB / 8 − 12.5KB = 112.5KB per queue; XON one MTU below.
	if cfg.XOFF != p.Buffer/8-12500 {
		t.Errorf("XOFF = %v", cfg.XOFF)
	}
	if cfg.XON != cfg.XOFF-p.MTU {
		t.Errorf("XON = %v", cfg.XON)
	}
	if err := cfg.Validate(p); err != nil {
		t.Error(err)
	}
	// A buffer that cannot give each queue a positive XON is rejected.
	p.Buffer = 8 * (12500 + p.MTU)
	if _, err := RecommendedBFC(p, 8); err == nil {
		t.Error("undersized buffer accepted")
	}
}

// TestBFCSequentialPausesStayInBuffer drives the worst case of BFC's
// overshoot: a stalled ingress whose sender, at line rate, moves to the next
// queue it may send on each time a QPAUSE lands, one feedback latency τ after
// the queue reached XOFF. Every queue takes up to Cτ past its XOFF,
// q·(XOFF + Cτ) in all, which RecommendedBFC's thresholds must fit in B;
// thresholds that leave one shared Cτ (q·XOFF + Cτ = B) overrun it.
func TestBFCSequentialPausesStayInBuffer(t *testing.T) {
	p := testParams()
	const queues = 8
	// Small packets keep the arrival granularity from eating into the Cτ
	// headroom: what lands inside one τ is then at most Cτ.
	const size = 100 * units.Byte
	env := newFakeEnv()
	env.delay = p.Tau
	c, err := wire(NewBFCQueues(queues), p, env)
	if err != nil {
		t.Fatal(err)
	}
	env.forward = c.Sender
	b := c.bank
	var occ, high units.Size
	sent := make([]units.Size, queues)
	var send func(int32)
	send = func(int32) {
		for q := range queues {
			if ok, _ := b.TrySend(1, q, size); ok {
				occ += size
				sent[q] += size
				high = max(high, occ)
				b.OnArrival(0, q, size, occ)
				env.eng.After(units.TransmissionTime(size, p.Capacity), send, 0)
				return
			}
		}
	}
	env.eng.After(0, send, 0)
	env.eng.Run(units.Never)
	if b.Rate(1) != 0 {
		t.Fatalf("sender still at rate %v with the ingress stalled", b.Rate(1))
	}
	cfg, _ := RecommendedBFC(p, queues)
	if sent[0] < cfg.XOFF+units.BytesIn(p.Capacity, p.Tau)-size {
		t.Fatalf("queue 0 took %v, short of XOFF + Cτ: the pauses did not run one after another", sent[0])
	}
	if high > p.Buffer {
		t.Fatalf("high water %v above the buffer %v (queues took %v)", high, p.Buffer, sent)
	}
}

func TestBFCPerQueuePauseResume(t *testing.T) {
	env := newFakeEnv()
	p := testParams()
	cfg := BFCConfig{Queues: 4, XOFF: 100 * units.KB, XON: 98 * units.KB}
	c, err := wire(explicitBFC(cfg), p, env)
	if err != nil {
		t.Fatal(err)
	}
	env.forward = c.Sender
	c.Receiver.Start()
	b := c.bank
	if b.Queues() != 4 {
		t.Fatalf("Queues() = %d", b.Queues())
	}

	// Fill queue 2 past XOFF: only queue 2 pauses.
	b.OnArrival(0, 2, 100*units.KB, 100*units.KB)
	env.eng.Run(units.Never)
	if len(env.sent) != 1 || env.sent[0].Kind != KindQueuePause || env.sent[0].QueueID != 2 {
		t.Fatalf("messages = %+v, want one QPAUSE for queue 2", env.sent)
	}
	if ok, _ := b.TrySend(1, 2, 1500); ok {
		t.Fatal("paused queue still sendable")
	}
	if ok, _ := b.TrySend(1, 0, 1500); !ok {
		t.Fatal("unpaused queue blocked — HoL blocking reintroduced")
	}
	if c.Sender.Rate() != p.Capacity {
		t.Fatal("rate dropped with unpaused queues remaining")
	}

	// Bounce inside (XON, XOFF): silent.
	b.OnDeparture(0, 2, 1*units.KB, 99*units.KB)
	b.OnArrival(0, 2, 1*units.KB, 100*units.KB)
	env.eng.Run(units.Never)
	if len(env.sent) != 1 {
		t.Fatalf("spurious messages: %+v", env.sent)
	}

	// Drain queue 2 to XON: QRESUME for queue 2 only.
	b.OnDeparture(0, 2, 2*units.KB, 98*units.KB)
	env.eng.Run(units.Never)
	if len(env.sent) != 2 || env.sent[1].Kind != KindQueueResume || env.sent[1].QueueID != 2 {
		t.Fatalf("messages = %+v, want QPAUSE,QRESUME", env.sent)
	}
	if ok, _ := b.TrySend(1, 2, 1500); !ok {
		t.Fatal("queue 2 still paused after QRESUME")
	}
}

func TestBFCAllQueuesPaused(t *testing.T) {
	env := newFakeEnv()
	p := testParams()
	cfg := BFCConfig{Queues: 2, XOFF: 100 * units.KB, XON: 98 * units.KB}
	c, err := wire(explicitBFC(cfg), p, env)
	if err != nil {
		t.Fatal(err)
	}
	env.forward = c.Sender
	b := c.bank
	b.OnArrival(0, 0, 100*units.KB, 100*units.KB)
	b.OnArrival(0, 1, 100*units.KB, 200*units.KB)
	env.eng.Run(units.Never)
	for q := range 2 {
		if ok, wake := b.TrySend(1, q, 1500); ok || wake != units.Never {
			t.Fatalf("queue %d not blocked with every queue paused", q)
		}
	}
	if c.Sender.Rate() != 0 {
		t.Fatal("rate not zero with every queue paused")
	}
	// A duplicate pause must not double-count.
	c.Sender.OnFeedback(Message{Kind: KindQueuePause, QueueID: 0})
	c.Sender.OnFeedback(Message{Kind: KindQueueResume, QueueID: 0})
	if c.Sender.Rate() != p.Capacity {
		t.Fatal("rate not restored after resume")
	}
	// Out-of-range queue IDs are ignored.
	c.Sender.OnFeedback(Message{Kind: KindQueuePause, QueueID: 99})
	if c.bank.(*bfcBank).npaused[1] != 1 {
		t.Fatal("out-of-range QueueID changed pause state")
	}
}

func TestBFCRejectsBadConfig(t *testing.T) {
	env := newFakeEnv()
	p := testParams()
	bad := []BFCConfig{
		{Queues: 2, XOFF: 0, XON: 0},
		{Queues: 2, XOFF: 100 * units.KB, XON: 200 * units.KB},
		{Queues: -1, XOFF: 100 * units.KB, XON: 98 * units.KB},
		// 8 queues × 150KB + 12.5KB headroom > 1000KB buffer.
		{Queues: 8, XOFF: 150 * units.KB, XON: 148 * units.KB},
		// 8 × 120KB + 12.5KB fits, but 8 × (120KB + 12.5KB) does not.
		{Queues: 8, XOFF: 120 * units.KB, XON: 118 * units.KB},
	}
	for i, cfg := range bad {
		if _, err := wire(explicitBFC(cfg), p, env); err == nil {
			t.Errorf("case %d accepted: %+v", i, cfg)
		}
	}
}

// Property: for any queue trajectory, buffer-based GFC's receiver emits a
// message exactly when the stage changes, and the sender's rate equals the
// stage rate of the last reported queue length.
func TestGFCBufferStageConsistency(t *testing.T) {
	f := func(qs []uint32) bool {
		env := newFakeEnv()
		p := testParams()
		c, err := wire(NewGFCBuffer(GFCBufferConfig{B1: 750 * units.KB}), p, env)
		if err != nil {
			return false
		}
		env.forward = c.Sender
		_, table := c.bank.Bound(0)
		for _, v := range qs {
			q := units.Size(v % 1100000)
			c.Receiver.OnArrival(0, q)
			env.eng.Run(units.Never)
			want := table.StageRate(table.StageFor(q))
			if c.Sender.Rate() != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: NextAllowed never precedes the last transmission's end, is
// monotone non-increasing in the assigned rate, and saturates cleanly to
// units.Never instead of overflowing when the countdown arithmetic exceeds
// the time range (huge R_l, tiny R_r, or a last-end near the horizon).
func TestRateLimiterNextAllowedProperties(t *testing.T) {
	f := func(endRaw, durRaw uint64, rateRaw uint32) bool {
		c := 100 * units.Gbps
		rl := NewRateLimiter(c)
		end := units.Time(endRaw % uint64(units.Never))
		dur := units.Time(durRaw % uint64(units.Never))
		if dur == 0 {
			dur = 1
		}
		rl.OnSent(end, dur)

		lo := units.Rate(rateRaw%1000+1) * DefaultMinRate // down to the floor
		hi := lo * 1000
		rl.SetRate(lo)
		atLo := rl.NextAllowed()
		rl.SetRate(hi)
		atHi := rl.NextAllowed()
		rl.SetRate(c)
		atLine := rl.NextAllowed()

		// Never negative, never before the wire went idle.
		if atLo < end || atHi < end || atLine != end {
			return false
		}
		// Slower assigned rate cannot unblock earlier.
		if atHi > atLo {
			return false
		}
		// Saturation is exact: either a representable time or Never.
		return atLo <= units.Never && atHi <= units.Never
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// The overflow guard at the Never boundary: a countdown whose end would pass
// MaxInt64 must report Never, and one safely inside the range must not.
func TestRateLimiterNeverBoundary(t *testing.T) {
	c := 100 * units.Gbps
	rl := NewRateLimiter(c)

	// ~73 years of wire time at the 8 Kb/s floor against 100 Gb/s: extra
	// overflows.
	rl.OnSent(0, units.Time(math.MaxInt64/4))
	rl.SetRate(1)
	if got := rl.NextAllowed(); got != units.Never {
		t.Fatalf("overflowing countdown = %v, want Never", got)
	}

	// A last end adjacent to the horizon overflows even with a short packet.
	rl.OnSent(units.Never-1, 1200)
	rl.SetRate(c / 2)
	if got := rl.NextAllowed(); got != units.Never {
		t.Fatalf("horizon-adjacent countdown = %v, want Never", got)
	}

	// Well inside the range the guard must not fire.
	rl.OnSent(1200, 1200)
	rl.SetRate(c / 2)
	if got := rl.NextAllowed(); got != 2412 {
		t.Fatalf("in-range countdown = %v, want 2412", got)
	}
}

// TestControlFrameIsEthernetMinimum pins the frame size the §4.2 overhead
// analysis (m = 64 B) and the Figure 19 feedback-bandwidth accounting rest
// on. The Figure 7 PFC layout — destination and source addresses, MAC-control
// EtherType, opcode, class-enable vector, eight 16-bit Time fields, which GFC
// repurposes as per-priority stage IDs (§5.1) — is 34 bytes, so every control
// frame travels padded to the 64-byte Ethernet minimum, whatever it carries.
func TestControlFrameIsEthernetMinimum(t *testing.T) {
	const ethernetMin = 64 * units.Byte
	if MessageSize != ethernetMin {
		t.Fatalf("MessageSize = %v, want the %v Ethernet minimum", MessageSize, ethernetMin)
	}
}

// TestBankRecordLayout pins buffer-based GFC's per-channel receiver record —
// the Message Generator's last stage, its two flags, the last queue and the
// last emission time — at 24 bytes, as TestPacketLayout pins the packet: a
// fabric keeps one per channel, so a field that grows it fails here.
func TestBankRecordLayout(t *testing.T) {
	if size := unsafe.Sizeof(gfcBufferReceiver{}); size > 24 {
		t.Errorf("gfcBufferReceiver is %d bytes; want at most 24", size)
	}
}
