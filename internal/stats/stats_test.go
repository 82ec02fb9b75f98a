package stats

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"github.com/gfcsim/gfc/internal/units"
)

func TestBinCounter(t *testing.T) {
	b := NewBinCounter(100 * units.Microsecond)
	b.Add(0, 1000)
	b.Add(50*units.Microsecond, 250)
	b.Add(150*units.Microsecond, 500)
	bins := b.Bins()
	if len(bins) != 2 || bins[0] != 1250 || bins[1] != 500 {
		t.Fatalf("bins = %v", bins)
	}
	// Bin 0: 1250B in 100µs = 100 Mb/s.
	if got := b.Rate(0); got != 100*units.Mbps {
		t.Errorf("Rate(0) = %v", got)
	}
	if got := b.Rate(5); got != 0 {
		t.Errorf("Rate out of range = %v", got)
	}
	if got := len(b.Rates()); got != 2 {
		t.Errorf("Rates len = %d", got)
	}
}

func TestBinCounterSparse(t *testing.T) {
	b := NewBinCounter(units.Millisecond)
	b.Add(10*units.Millisecond, 1)
	if len(b.Bins()) != 11 {
		t.Fatalf("bins = %d, want 11", len(b.Bins()))
	}
	for i := 0; i < 10; i++ {
		if b.Bins()[i] != 0 {
			t.Fatal("early bins not zero")
		}
	}
}

// Regression: negative timestamps used to index bins[-1] and panic; they
// must clamp into the first bin.
func TestBinCounterNegativeTime(t *testing.T) {
	b := NewBinCounter(units.Millisecond)
	b.Add(-5*units.Millisecond, 100)
	b.Add(-1, 50)
	b.Add(0, 25)
	if got := b.Bins()[0]; got != 175 {
		t.Fatalf("bin 0 = %v, want 175", got)
	}
}

// Regression: a single far-future timestamp used to grow the bin slice
// unboundedly; it must clamp into the final bin.
func TestBinCounterFarFutureCapped(t *testing.T) {
	b := NewBinCounter(units.Nanosecond)
	b.Add(units.Time(1e18), 7)
	if got := len(b.Bins()); got != maxBins {
		t.Fatalf("bins = %d, want %d", got, maxBins)
	}
	if got := b.Bins()[maxBins-1]; got != 7 {
		t.Fatalf("final bin = %v, want 7", got)
	}
}

func TestBinCounterBadWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero width did not panic")
		}
	}()
	NewBinCounter(0)
}

func TestSeries(t *testing.T) {
	var s Series
	if s.Max() != 0 {
		t.Fatal("empty series not zero")
	}
	s.Append(1, 5)
	s.Append(2, 9)
	s.Append(3, 7)
	if s.Len() != 3 || s.Max() != 9 {
		t.Fatalf("series stats wrong: %+v", s)
	}
	if got := s.MeanAfter(2); got != 8 {
		t.Errorf("MeanAfter(2) = %v, want 8", got)
	}
	if got := s.MeanAfter(100); got != 0 {
		t.Errorf("MeanAfter(past end) = %v", got)
	}
}

func TestSeriesDownsample(t *testing.T) {
	var s Series
	for i := 0; i < 1000; i++ {
		s.Append(units.Time(i), float64(i))
	}
	d := s.Downsample(10)
	if d.Len() != 10 {
		t.Fatalf("downsampled to %d", d.Len())
	}
	if d.T[0] != 0 || d.T[9] != 999 {
		t.Fatal("endpoints not preserved")
	}
	// No-op when already small.
	small := s.Downsample(2000)
	if small.Len() != 1000 {
		t.Fatal("small downsample changed length")
	}
}

// Regression: Downsample(1) used to divide by zero (step = (Len−1)/0 →
// +Inf) and panic indexing with the resulting huge j. Boundary-check every
// max around the series length.
func TestSeriesDownsampleBoundaries(t *testing.T) {
	var s Series
	const n = 100
	for i := 0; i < n; i++ {
		s.Append(units.Time(i), float64(i))
	}
	cases := []struct {
		max, wantLen int
	}{
		{0, n},     // non-positive: unchanged copy
		{1, 1},     // used to panic
		{2, 2},     // endpoints
		{n, n},     // exactly fits
		{n + 1, n}, // already within budget
	}
	for _, c := range cases {
		d := s.Downsample(c.max)
		if d.Len() != c.wantLen {
			t.Errorf("Downsample(%d).Len() = %d, want %d", c.max, d.Len(), c.wantLen)
		}
	}
	if d := s.Downsample(1); d.T[0] != n-1 || d.V[0] != n-1 {
		t.Errorf("Downsample(1) = (%v, %v), want the final point", d.T[0], d.V[0])
	}
	if d := s.Downsample(2); d.T[0] != 0 || d.T[1] != n-1 {
		t.Errorf("Downsample(2) endpoints = %v, %v", d.T[0], d.T[1])
	}
	var empty Series
	if d := empty.Downsample(1); d.Len() != 0 {
		t.Errorf("empty Downsample(1).Len() = %d", d.Len())
	}
}

func TestCDFQuantiles(t *testing.T) {
	var c CDF
	if c.Quantile(0.5) != 0 || c.Mean() != 0 {
		t.Fatal("empty CDF not zero")
	}
	for i := 1; i <= 100; i++ {
		c.Add(float64(i))
	}
	if got := c.Quantile(0); got != 1 {
		t.Errorf("Q0 = %v", got)
	}
	if got := c.Quantile(1); got != 100 {
		t.Errorf("Q1 = %v", got)
	}
	if got := c.Quantile(0.5); math.Abs(got-50.5) > 0.01 {
		t.Errorf("median = %v, want 50.5", got)
	}
	if got := c.Mean(); got != 50.5 {
		t.Errorf("mean = %v", got)
	}
	if got := c.Max(); got != 100 {
		t.Errorf("max = %v", got)
	}
}

func TestCDFStddev(t *testing.T) {
	var c CDF
	c.Add(5)
	if c.Stddev() != 0 {
		t.Fatal("stddev of single sample not 0")
	}
	c.Add(5)
	if c.Stddev() != 0 {
		t.Fatal("stddev of identical samples not 0")
	}
	var c2 CDF
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		c2.Add(x)
	}
	if got := c2.Stddev(); math.Abs(got-2.138) > 0.01 {
		t.Errorf("stddev = %v, want ≈2.138", got)
	}
}

func TestSlowdown(t *testing.T) {
	if got := Slowdown(200, 100); got != 2 {
		t.Errorf("Slowdown = %v", got)
	}
	if got := Slowdown(100, 0); !math.IsInf(got, 1) {
		t.Errorf("Slowdown with zero ideal = %v, want +Inf", got)
	}
}

func TestTableRendering(t *testing.T) {
	tb := Table{Header: []string{"Scale", "PFC", "GFC"}}
	tb.AddRow("k=4", "32", "0")
	tb.AddRow("k=16", "2", "0")
	out := tb.String()
	if !strings.Contains(out, "Scale") || !strings.Contains(out, "k=16") {
		t.Fatalf("table output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines", len(lines))
	}
}

// Property: quantiles are monotone and bounded by min/max.
func TestCDFQuantileMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var c CDF
		for i := 0; i < 50; i++ {
			c.Add(rng.NormFloat64() * 100)
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := c.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return c.Quantile(0) <= c.Mean() && c.Mean() <= c.Quantile(1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: Quantile and the empirical P(X ≤ x) are approximate inverses.
func TestCDFInverse(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var c CDF
		var xs []float64
		for i := 0; i < 100; i++ {
			xs = append(xs, rng.Float64()*1000)
			c.Add(xs[i])
		}
		for _, q := range []float64{0.1, 0.5, 0.9} {
			x := c.Quantile(q)
			below := 0
			for _, v := range xs {
				if v <= x {
					below++
				}
			}
			p := float64(below) / float64(len(xs))
			if math.Abs(p-q) > 0.05 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: the bins hold exactly the sum of added sizes regardless of
// arrival order.
func TestBinCounterTotal(t *testing.T) {
	f := func(raw []uint16) bool {
		b := NewBinCounter(units.Millisecond)
		var want units.Size
		for i, v := range raw {
			s := units.Size(v)
			b.Add(units.Time(i%50)*units.Millisecond, s)
			want += s
		}
		var total units.Size
		for _, v := range b.Bins() {
			total += v
		}
		return total == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
