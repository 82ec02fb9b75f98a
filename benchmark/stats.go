package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values for
// an even count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

// tailPercentiles are the candidates for the reported tail, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75}

// tail returns the highest percentile of xs that still has at least ten
// samples beyond it, and that percentile's value — the choosing-metrics rule
// for how far into the tail a sample of this size can speak. ok is false when
// even p75 has fewer than ten samples above it (n < 40).
func tail(xs []float64) (pct, value float64, ok bool) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	for _, p := range tailPercentiles {
		// rank is the 1-based nearest-rank index of percentile p.
		// (The epsilon keeps 99.9 % of 10 000 at rank 9990, not 9991.)
		rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
		if rank >= 1 && n-rank >= 10 {
			return p, s[rank-1], true
		}
	}
	return 0, 0, false
}
