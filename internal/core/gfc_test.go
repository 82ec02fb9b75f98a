package core

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/gfcsim/gfc/internal/units"
)

func TestTauPaperValues(t *testing.T) {
	// §5.4: CEE (MTU=1.5KB), t_w=1µs, t_r=3µs → τ = 7.4/5.6/5.2 µs at
	// 10/40/100 Gb/s.
	cases := []struct {
		c    units.Rate
		mtu  units.Size
		want units.Time
	}{
		{10 * units.Gbps, 1500, units.Time(7.4 * float64(units.Microsecond))},
		{40 * units.Gbps, 1500, units.Time(5.6 * float64(units.Microsecond))},
		{100 * units.Gbps, 1500, units.Time(5.24 * float64(units.Microsecond))},
		// InfiniBand MTU=4KB: 11.4/6.6/5.64 µs.
		{10 * units.Gbps, 4000, units.Time(11.4 * float64(units.Microsecond))},
		{40 * units.Gbps, 4000, units.Time(6.6 * float64(units.Microsecond))},
	}
	for _, c := range cases {
		got := Tau(c.c, c.mtu, units.Microsecond, 3*units.Microsecond)
		diff := got - c.want
		if diff < 0 {
			diff = -diff
		}
		if diff > 50*units.Nanosecond {
			t.Errorf("Tau(%v, %v) = %v, want ≈%v", c.c, c.mtu, got, c.want)
		}
	}
}

func TestConceptualB0Bound(t *testing.T) {
	// Bm=100KB, C=10G, τ=1µs: 4Cτ = 5000B → bound 95000.
	got := ConceptualB0Bound(100*units.KB, 10*units.Gbps, units.Microsecond)
	if got != 95000 {
		t.Errorf("bound = %d, want 95000", got)
	}
}

func TestTimeBasedB0Bound(t *testing.T) {
	// τ = T: (√1+1)² = 4, so bound = Bm − 4CT, same as Theorem 4.1 with τ=T.
	bm := 1000 * units.KB
	c := 10 * units.Gbps
	T := 10 * units.Microsecond
	got := TimeBasedB0Bound(bm, c, T, T)
	want := bm - 4*units.BytesIn(c, T)
	if got != want {
		t.Errorf("bound = %v, want %v", got, want)
	}
	// τ → 0: factor → 1, bound → Bm − CT.
	got0 := TimeBasedB0Bound(bm, c, 0, T)
	want0 := bm - units.BytesIn(c, T)
	if got0 != want0 {
		t.Errorf("τ=0 bound = %v, want %v", got0, want0)
	}
}

func TestTimeBasedB0BoundPaperMagnitude(t *testing.T) {
	// §5.4: at 10G with the CBFC-recommended T (65535B worth ≈ 52.4µs)
	// and τ=7.4µs, (√(τ/T)+1)²CT ≤ 140.8KB.
	T := units.TransmissionTime(65535, 10*units.Gbps)
	tau := Tau(10*units.Gbps, 1500, units.Microsecond, 3*units.Microsecond)
	need := 1000*units.KB - TimeBasedB0Bound(1000*units.KB, 10*units.Gbps, tau, T)
	if need < 120*units.KB || need > 145*units.KB {
		t.Errorf("reserved headroom = %v, paper says ≤ 140.8KB", need)
	}
}

func TestTimeBasedB0BoundBadPeriod(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-positive period did not panic")
		}
	}()
	TimeBasedB0Bound(units.KB, units.Gbps, 0, 0)
}

func TestContinuousMapping(t *testing.T) {
	m := ContinuousMapping{C: 10 * units.Gbps, B0: 50 * units.KB, Bm: 100 * units.KB}
	if got := m.Rate(0); got != 10*units.Gbps {
		t.Errorf("Rate(0) = %v", got)
	}
	if got := m.Rate(50 * units.KB); got != 10*units.Gbps {
		t.Errorf("Rate(B0) = %v, want C", got)
	}
	if got := m.Rate(75 * units.KB); got != 5*units.Gbps {
		t.Errorf("Rate(75KB) = %v, want 5Gbps", got)
	}
	if got := m.Rate(100 * units.KB); got != 0 {
		t.Errorf("Rate(Bm) = %v, want 0", got)
	}
	if got := m.Rate(200 * units.KB); got != 0 {
		t.Errorf("Rate(>Bm) = %v, want 0", got)
	}
}

func TestSteadyQueueFig5(t *testing.T) {
	// Figure 5: C=10G, B0=50KB, Bm=100KB, drain 5G → B_s = 75KB.
	m := ContinuousMapping{C: 10 * units.Gbps, B0: 50 * units.KB, Bm: 100 * units.KB}
	if got := m.SteadyQueue(5 * units.Gbps); got != 75*units.KB {
		t.Errorf("SteadyQueue(5G) = %v, want 75KB", got)
	}
	if got := m.SteadyQueue(10 * units.Gbps); got != 50*units.KB {
		t.Errorf("SteadyQueue(C) = %v, want B0", got)
	}
	if got := m.SteadyQueue(0); got != 100*units.KB {
		t.Errorf("SteadyQueue(0) = %v, want Bm", got)
	}
}

func mustStageTable(t *testing.T, c units.Rate, bm, b1 units.Size) *StageTable {
	t.Helper()
	st, err := NewStageTable(c, bm, b1)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestStageTableConstruction(t *testing.T) {
	// Testbed parameters of §6.1: C=10G, Bm=1MB, B1=750KB.
	st := mustStageTable(t, 10*units.Gbps, 1000*units.KB, 750*units.KB)
	if st.Threshold(1) != 750*units.KB {
		t.Errorf("B1 = %v", st.Threshold(1))
	}
	// B2 = Bm − (Bm−B1)/2 = 875KB; R1 = 5G, R2 = 2.5G.
	if st.Threshold(2) != 875*units.KB {
		t.Errorf("B2 = %v, want 875KB", st.Threshold(2))
	}
	if st.StageRate(1) != 5*units.Gbps || st.StageRate(2) != 2.5*units.Gbps {
		t.Errorf("R1=%v R2=%v", st.StageRate(1), st.StageRate(2))
	}
}

func TestStageTablePaperStageCounts(t *testing.T) {
	// §5.4: with B_m − B_1 = 2Cτ, N = 16/18/20 at 10/40/100 Gb/s (CEE τ).
	cases := []struct {
		c     units.Rate
		tau   units.Time
		wantN int
	}{
		{10 * units.Gbps, Tau(10*units.Gbps, 1500, units.Microsecond, 3*units.Microsecond), 16},
		{40 * units.Gbps, Tau(40*units.Gbps, 1500, units.Microsecond, 3*units.Microsecond), 18},
		{100 * units.Gbps, Tau(100*units.Gbps, 1500, units.Microsecond, 3*units.Microsecond), 20},
	}
	for _, c := range cases {
		bm := 10 * units.MB
		b1 := BufferBasedB1Bound(bm, c.c, c.tau)
		st := mustStageTable(t, c.c, bm, b1)
		// The paper's exact stop rule ("B_N − B_{N−1} ≤ 8b") is stated
		// loosely; allow a ±2 convention difference around its N.
		if got := st.Stages(); got < c.wantN-2 || got > c.wantN+2 {
			t.Errorf("C=%v: N = %d, paper says %d", c.c, got, c.wantN)
		}
	}
}

func TestStageTableErrors(t *testing.T) {
	if _, err := NewStageTable(0, 100, 50); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := NewStageTable(units.Gbps, 100, 0); err == nil {
		t.Error("zero B1 accepted")
	}
	if _, err := NewStageTable(units.Gbps, 100, 100); err == nil {
		t.Error("B1 == Bm accepted")
	}
}

func TestNewSafeStageTable(t *testing.T) {
	c := 10 * units.Gbps
	tau := 10 * units.Microsecond
	bm := 1000 * units.KB
	bound := BufferBasedB1Bound(bm, c, tau) // 1000KB − 25KB = 975KB
	if _, err := NewSafeStageTable(c, bm, bound, tau); err != nil {
		t.Errorf("B1 at bound rejected: %v", err)
	}
	if _, err := NewSafeStageTable(c, bm, bound+1, tau); err == nil {
		t.Error("B1 above bound accepted")
	}
}

func TestStageFor(t *testing.T) {
	st := mustStageTable(t, 10*units.Gbps, 1000*units.KB, 750*units.KB)
	cases := []struct {
		q    units.Size
		want int
	}{
		{0, 0},
		{749999, 0},
		{750 * units.KB, 1},
		{874999, 1},
		{875 * units.KB, 2},
		{1000 * units.KB, st.Stages()},
		{2000 * units.KB, st.Stages()},
	}
	for _, c := range cases {
		if got := st.StageFor(c.q); got != c.want {
			t.Errorf("StageFor(%v) = %d, want %d", c.q, got, c.want)
		}
	}
}

func TestStageRateNeverZero(t *testing.T) {
	st := mustStageTable(t, 10*units.Gbps, 1000*units.KB, 750*units.KB)
	if r := st.StageRate(st.Stages()); r <= 0 {
		t.Fatalf("final stage rate %v must stay positive", r)
	}
	if r := st.RateFor(100 * units.MB); r <= 0 {
		t.Fatalf("RateFor(huge q) = %v must stay positive", r)
	}
}

func TestStageRateClampsAboveN(t *testing.T) {
	st := mustStageTable(t, 10*units.Gbps, 1000*units.KB, 750*units.KB)
	if st.StageRate(st.Stages()+5) != st.StageRate(st.Stages()) {
		t.Error("StageRate beyond N does not clamp")
	}
	if st.StageRate(0) != 10*units.Gbps || st.StageRate(-1) != 10*units.Gbps {
		t.Error("stage 0 is not line rate")
	}
}

func TestOverheadModelPaperValues(t *testing.T) {
	// §4.2: m=64B, τ=7.4µs → worst 69 Mb/s (0.69%), steady 8.6 Mb/s.
	o := OverheadModel{MessageSize: 64, Tau: units.Time(7.4 * float64(units.Microsecond))}
	w := o.WorstCase()
	if math.Abs(float64(w)-69.2e6) > 1e6 {
		t.Errorf("WorstCase = %v, want ≈69Mbps", w)
	}
	s := o.Steady()
	if math.Abs(float64(s)-8.65e6) > 0.2e6 {
		t.Errorf("Steady = %v, want ≈8.6Mbps", s)
	}
	if f := float64(w) / float64(10*units.Gbps); math.Abs(f-0.0069) > 0.0002 {
		t.Errorf("worst fraction = %v, want ≈0.0069", f)
	}
}

// Property: stage thresholds are strictly increasing, rates strictly
// decreasing and exactly halving, and the mapping is consistent with
// thresholds.
func TestStageTableInvariants(t *testing.T) {
	f := func(b1Frac uint8) bool {
		bm := 1000 * units.KB
		b1 := units.Size(1+int64(b1Frac)%999) * units.KB
		st, err := NewStageTable(10*units.Gbps, bm, b1)
		if err != nil {
			return false
		}
		prevT := units.Size(-1)
		prevR := 2 * st.C
		for k := 1; k <= st.Stages(); k++ {
			thr, r := st.Threshold(k), st.StageRate(k)
			if thr <= prevT || thr > bm {
				return false
			}
			if r <= 0 || r*2 != prevR && k > 1 {
				return false
			}
			// Mapping consistency at boundary.
			if st.StageFor(thr) != k {
				return false
			}
			if thr > 0 && st.StageFor(thr-1) != k-1 {
				return false
			}
			prevT, prevR = thr, r
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: the continuous mapping is monotonically non-increasing in q and
// the steady queue is a fixed point: Rate(SteadyQueue(d)) ≈ d.
func TestContinuousMappingProperties(t *testing.T) {
	m := ContinuousMapping{C: 10 * units.Gbps, B0: 50 * units.KB, Bm: 100 * units.KB}
	f := func(a, b uint32) bool {
		q1 := units.Size(a % 120000)
		q2 := units.Size(b % 120000)
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		if m.Rate(q1) < m.Rate(q2) {
			return false
		}
		drain := units.Rate(a%10000) * units.Mbps
		if drain == 0 || drain > m.C {
			return true
		}
		qs := m.SteadyQueue(drain)
		got := m.Rate(qs)
		return math.Abs(float64(got-drain)) <= float64(m.C)/float64(m.Bm-m.B0)+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Theorem 4.1 stage-spacing requirement (equation 1) holds for
// safe tables: B_{k+1} − B_k ≥ R_{k−1}·τ... with equality allowed at the
// bound. We verify the derived requirement span ≥ 2Cτ ⇒ every stage is long
// enough for its feedback to take effect.
func TestStageSpacingSatisfiesEq1(t *testing.T) {
	c := 10 * units.Gbps
	tau := 7400 * units.Nanosecond
	bm := 1000 * units.KB
	b1 := BufferBasedB1Bound(bm, c, tau)
	st, err := NewSafeStageTable(c, bm, b1, tau)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k < st.Stages(); k++ {
		gap := st.Threshold(k+1) - st.Threshold(k)
		need := units.BytesIn(st.StageRate(k-1), tau)
		if gap < need {
			t.Errorf("stage %d: gap %v < R_{k-1}τ %v", k, gap, need)
		}
	}
}

func TestStageTableRatio(t *testing.T) {
	// r = 3/4: rates shrink slower, more stages, thresholds still
	// geometric per equation (2).
	st, err := NewStageTableRatio(10*units.Gbps, 1000*units.KB, 750*units.KB, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.StageRate(1); got != 7.5*units.Gbps {
		t.Errorf("R1 = %v, want 7.5G", got)
	}
	if got := st.StageRate(2); got != 5.625*units.Gbps {
		t.Errorf("R2 = %v, want 5.625G", got)
	}
	// B2 = Bm − (Bm−B1)·0.75 = 1000 − 187.5 = 812.5KB.
	if got := st.Threshold(2); got != 812500 {
		t.Errorf("B2 = %v, want 812.5KB", got)
	}
	// More stages than the r=1/2 table over the same span.
	half, err := NewStageTable(10*units.Gbps, 1000*units.KB, 750*units.KB)
	if err != nil {
		t.Fatal(err)
	}
	if st.Stages() <= half.Stages() {
		t.Errorf("r=3/4 stages %d not more than r=1/2's %d", st.Stages(), half.Stages())
	}
}

func TestStageTableRatioBounds(t *testing.T) {
	if _, err := NewStageTableRatio(units.Gbps, 100, 50, 0.76); err == nil {
		t.Error("ratio above 3/4 accepted (violates equation 3)")
	}
	if _, err := NewStageTableRatio(units.Gbps, 100, 50, 0); err == nil {
		t.Error("zero ratio accepted")
	}
	if _, err := NewStageTableRatio(units.Gbps, 100, 50, -0.5); err == nil {
		t.Error("negative ratio accepted")
	}
}

// Property: for any legal ratio the generalised table keeps strictly
// increasing thresholds, strictly decreasing rates with the exact ratio, and
// consistent StageFor mapping.
func TestStageTableRatioInvariants(t *testing.T) {
	f := func(rr uint8, b1Frac uint8) bool {
		ratio := 0.25 + float64(rr%50)/100 // 0.25 .. 0.74
		bm := 1000 * units.KB
		b1 := units.Size(100+int64(b1Frac)%800) * units.KB
		st, err := NewStageTableRatio(10*units.Gbps, bm, b1, ratio)
		if err != nil {
			return false
		}
		prevT := units.Size(-1)
		for k := 1; k <= st.Stages(); k++ {
			thr := st.Threshold(k)
			if thr <= prevT || thr > bm {
				return false
			}
			if st.StageFor(thr) != k {
				return false
			}
			if k > 1 {
				want := float64(st.StageRate(k-1)) * ratio
				got := float64(st.StageRate(k))
				if got < want*0.999 || got > want*1.001 {
					return false
				}
			}
			prevT = thr
		}
		return st.StageRate(st.Stages()) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: StageFor is monotone non-decreasing in q over the whole input
// range (not just at thresholds), StageRate is non-increasing in k, and
// stage 0 is always line rate — the monotone behaviour the runtime invariant
// checker (internal/metrics) assumes of every table it validates.
func TestStageTableMonotoneProperties(t *testing.T) {
	f := func(b1Frac uint8, ratioFrac uint8, qa, qb uint32) bool {
		bm := 1000 * units.KB
		b1 := units.Size(100+int64(b1Frac)%800) * units.KB
		ratio := 0.25 + float64(ratioFrac%50)/100 // (0.25, 0.75), eq. 3 range
		st, err := NewStageTableRatio(10*units.Gbps, bm, b1, ratio)
		if err != nil {
			return false
		}
		if st.StageRate(0) != st.C {
			return false
		}
		// StageRate non-increasing in k, including the clamp past Stages().
		for k := 1; k <= st.Stages()+2; k++ {
			if st.StageRate(k) > st.StageRate(k-1) {
				return false
			}
		}
		// StageFor monotone: q1 ≤ q2 ⇒ StageFor(q1) ≤ StageFor(q2), sampled
		// over queue lengths beyond Bm as well.
		q1 := units.Size(qa) % (bm + bm/4)
		q2 := units.Size(qb) % (bm + bm/4)
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		if st.StageFor(q1) > st.StageFor(q2) {
			return false
		}
		// RateFor is the composition, so it must be non-increasing too.
		return st.RateFor(q1) >= st.RateFor(q2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
