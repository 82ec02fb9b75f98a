// Package workload generates the traffic of the paper's evaluation. The
// large-scale sweeps (§6.2.3) drive every host with flows whose sizes follow
// the empirically observed enterprise traffic pattern of Figure 15 (from the
// "Let It Flow" enterprise workload [57]) toward uniformly random
// destinations in other racks; each host starts a new flow as soon as its
// previous one finishes.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/gfcsim/gfc/internal/units"
)

// SizeDist is a flow-size distribution sampled by inverse-transform over a
// piecewise log-linear CDF.
type SizeDist struct {
	// knots are (size, cumulative-probability) pairs, ascending in both.
	sizes []float64 // log10 bytes
	probs []float64
}

// point is one CDF knot: P(size ≤ Size) = Prob.
type point struct {
	Size units.Size
	Prob float64
}

func newSizeDist(knots []point) *SizeDist {
	d := &SizeDist{}
	for _, k := range knots {
		d.sizes = append(d.sizes, math.Log10(float64(k.Size)))
		d.probs = append(d.probs, k.Prob)
	}
	return d
}

// Enterprise returns the flow-size distribution of Figure 15: the enterprise
// workload measured in [57] (Let It Flow, NSDI'17) — mostly small flows
// (median ≈ a few KB) with a heavy tail of multi-MB flows carrying most of
// the bytes.
func Enterprise() *SizeDist {
	return newSizeDist([]point{
		{250 * units.Byte, 0},
		{500 * units.Byte, 0.15},
		{1 * units.KB, 0.30},
		{2 * units.KB, 0.42},
		{5 * units.KB, 0.55},
		{10 * units.KB, 0.65},
		{30 * units.KB, 0.75},
		{100 * units.KB, 0.84},
		{300 * units.KB, 0.90},
		{1 * units.MB, 0.95},
		{3 * units.MB, 0.98},
		{10 * units.MB, 0.998},
		{30 * units.MB, 1.0},
	})
}

// Uniform returns a degenerate distribution that always samples size s; for
// controlled experiments.
func Uniform(s units.Size) *SizeDist {
	return newSizeDist([]point{{s, 0}, {s + 1, 1.0}})
}

// Validate checks the distribution is sampleable: at least two knots, every
// size positive (a non-positive size turns into a NaN/-Inf log knot and
// poisons every sample), sizes strictly ascending and probabilities ascending
// within [0, 1]. Uniform(0) is the canonical way to trip this.
func (d *SizeDist) Validate() error {
	if len(d.sizes) < 2 {
		return fmt.Errorf("workload: size distribution needs at least 2 CDF knots, got %d", len(d.sizes))
	}
	for i, ls := range d.sizes {
		if math.IsNaN(ls) || math.IsInf(ls, 0) {
			return fmt.Errorf("workload: size distribution knot %d has non-positive size (log10 = %v)", i, ls)
		}
		if i > 0 && ls <= d.sizes[i-1] {
			return fmt.Errorf("workload: size distribution knot %d not ascending in size", i)
		}
	}
	for i, p := range d.probs {
		if p < 0 || p > 1 || math.IsNaN(p) {
			return fmt.Errorf("workload: size distribution knot %d has probability %v outside [0,1]", i, p)
		}
		if i > 0 && p < d.probs[i-1] {
			return fmt.Errorf("workload: size distribution knot %d not ascending in probability", i)
		}
	}
	if last := d.probs[len(d.probs)-1]; last != 1 {
		return fmt.Errorf("workload: size distribution CDF ends at %v, want 1", last)
	}
	return nil
}

// Sample draws one flow size.
func (d *SizeDist) Sample(rng *rand.Rand) units.Size {
	u := rng.Float64()
	i := sort.SearchFloat64s(d.probs, u)
	if i == 0 {
		return units.Size(math.Pow(10, d.sizes[0]))
	}
	if i >= len(d.probs) {
		i = len(d.probs) - 1
	}
	// Log-linear interpolation between knots i-1 and i.
	p0, p1 := d.probs[i-1], d.probs[i]
	s0, s1 := d.sizes[i-1], d.sizes[i]
	frac := 0.0
	if p1 > p0 {
		frac = (u - p0) / (p1 - p0)
	}
	return units.Size(math.Round(math.Pow(10, s0+frac*(s1-s0))))
}

// CDFAt reports P(size ≤ s) under the distribution (for Figure 15
// regeneration and goodness-of-fit tests).
func (d *SizeDist) CDFAt(s units.Size) float64 {
	ls := math.Log10(float64(s))
	if ls <= d.sizes[0] {
		return d.probs[0]
	}
	last := len(d.sizes) - 1
	if ls >= d.sizes[last] {
		return d.probs[last]
	}
	i := sort.SearchFloat64s(d.sizes, ls)
	s0, s1 := d.sizes[i-1], d.sizes[i]
	p0, p1 := d.probs[i-1], d.probs[i]
	frac := (ls - s0) / (s1 - s0)
	return p0 + frac*(p1-p0)
}
