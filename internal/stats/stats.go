// Package stats provides the measurement primitives the evaluation uses:
// time-binned throughput counters (the paper counts sent bytes every 100 µs,
// §6.2.3), queue/rate time series, empirical CDFs (Figure 19) and the
// slowdown metric of Figure 17.
package stats

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"github.com/gfcsim/gfc/internal/units"
)

// BinCounter accumulates byte counts into fixed-width time bins. Samples at
// negative times clamp into the first bin, and samples at or beyond
// maxBins·Width clamp into the last — the bin slice grows with the largest
// timestamp seen, so without the cap a single far-future sample would
// allocate unboundedly.
type BinCounter struct {
	Width units.Time
	bins  []units.Size
}

// maxBins caps a counter at 2^20 bins (8 MiB of counts) — far beyond any
// simulated duration at the 100 µs and 500 µs widths the experiments use.
const maxBins = 1 << 20

// NewBinCounter returns a counter with the given bin width.
func NewBinCounter(width units.Time) *BinCounter {
	if width <= 0 {
		panic("stats: non-positive bin width")
	}
	return &BinCounter{Width: width}
}

// Add records s bytes at time t.
func (b *BinCounter) Add(t units.Time, s units.Size) {
	if t < 0 {
		t = 0 // pre-start samples land in the first bin
	}
	idx := int(t / b.Width)
	if idx >= maxBins {
		idx = maxBins - 1
	}
	for len(b.bins) <= idx {
		b.bins = append(b.bins, 0)
	}
	b.bins[idx] += s
}

// Bins returns the per-bin byte counts.
func (b *BinCounter) Bins() []units.Size { return b.bins }

// Rate reports the average rate of bin i.
func (b *BinCounter) Rate(i int) units.Rate {
	if i < 0 || i >= len(b.bins) {
		return 0
	}
	return units.RateOf(b.bins[i], b.Width)
}

// Rates returns the average rate of every bin.
func (b *BinCounter) Rates() []units.Rate {
	out := make([]units.Rate, len(b.bins))
	for i := range b.bins {
		out[i] = b.Rate(i)
	}
	return out
}

// Series is a time-stamped scalar series (queue lengths, rates).
type Series struct {
	T []units.Time `json:"t_ns"`
	V []float64    `json:"v"`
}

// Append adds a point.
func (s *Series) Append(t units.Time, v float64) {
	s.T = append(s.T, t)
	s.V = append(s.V, v)
}

// Len reports the number of points.
func (s *Series) Len() int { return len(s.T) }

// Max returns the maximum value, or 0 when empty.
func (s *Series) Max() float64 {
	m := math.Inf(-1)
	for _, v := range s.V {
		if v > m {
			m = v
		}
	}
	if math.IsInf(m, -1) {
		return 0
	}
	return m
}

// MeanAfter returns the mean of values at or after t; 0 when none.
func (s *Series) MeanAfter(t units.Time) float64 {
	var sum float64
	var n int
	for i, ts := range s.T {
		if ts >= t {
			sum += s.V[i]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Downsample returns a copy keeping at most max evenly spaced points, for
// plotting. Non-positive max (or a series already within budget) copies the
// series unchanged; max == 1 keeps the final point — the series' most recent
// state, the one useful single-sample summary.
func (s *Series) Downsample(max int) *Series {
	if max <= 0 || s.Len() <= max {
		out := &Series{T: append([]units.Time(nil), s.T...), V: append([]float64(nil), s.V...)}
		return out
	}
	if max == 1 {
		last := s.Len() - 1
		return &Series{T: []units.Time{s.T[last]}, V: []float64{s.V[last]}}
	}
	out := &Series{}
	step := float64(s.Len()-1) / float64(max-1)
	for i := 0; i < max; i++ {
		j := int(math.Round(float64(i) * step))
		out.Append(s.T[j], s.V[j])
	}
	return out
}

// CDF is an empirical cumulative distribution.
type CDF struct {
	xs     []float64
	sorted bool
}

// Add records one sample.
func (c *CDF) Add(x float64) {
	c.xs = append(c.xs, x)
	c.sorted = false
}

// Grow makes room for n more samples, so that many Adds allocate nothing.
func (c *CDF) Grow(n int) { c.xs = slices.Grow(c.xs, n) }

// Len reports the number of samples.
func (c *CDF) Len() int { return len(c.xs) }

func (c *CDF) sort() {
	if !c.sorted {
		sort.Float64s(c.xs)
		c.sorted = true
	}
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1); 0 when empty.
func (c *CDF) Quantile(q float64) float64 {
	if len(c.xs) == 0 {
		return 0
	}
	c.sort()
	if q <= 0 {
		return c.xs[0]
	}
	if q >= 1 {
		return c.xs[len(c.xs)-1]
	}
	idx := q * float64(len(c.xs)-1)
	lo := int(math.Floor(idx))
	hi := int(math.Ceil(idx))
	if lo == hi {
		return c.xs[lo]
	}
	frac := idx - float64(lo)
	return c.xs[lo]*(1-frac) + c.xs[hi]*frac
}

// Mean returns the sample mean; 0 when empty.
func (c *CDF) Mean() float64 {
	if len(c.xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range c.xs {
		sum += x
	}
	return sum / float64(len(c.xs))
}

// Max returns the largest sample; 0 when empty.
func (c *CDF) Max() float64 { return c.Quantile(1) }

// Stddev returns the sample standard deviation; 0 with fewer than 2 samples.
func (c *CDF) Stddev() float64 {
	if len(c.xs) < 2 {
		return 0
	}
	m := c.Mean()
	var ss float64
	for _, x := range c.xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(c.xs)-1))
}

// Slowdown computes the Figure 17 metric: actual flow completion time
// divided by the unloaded-network completion time for the same flow.
func Slowdown(fct, ideal units.Time) float64 {
	if ideal <= 0 {
		return math.Inf(1)
	}
	return float64(fct) / float64(ideal)
}

// Table renders rows of labelled values as an aligned text table — the form
// the benchmark harness prints its reproduced tables in.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends a row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}
