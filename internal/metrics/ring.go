package metrics

import (
	"github.com/gfcsim/gfc/internal/stats"
	"github.com/gfcsim/gfc/internal/units"
)

// ring is a fixed-capacity circular time series. All storage is allocated at
// Bind; push never allocates, so long runs keep the most recent window of
// samples at zero steady-state cost.
type ring struct {
	t    []units.Time
	v    []float64
	head int // next write position
	n    int // live samples
}

func (r *ring) init(cap int) {
	r.t = make([]units.Time, cap)
	r.v = make([]float64, cap)
}

func (r *ring) push(t units.Time, v float64) {
	r.t[r.head] = t
	r.v[r.head] = v
	r.head++
	if r.head == len(r.t) {
		r.head = 0
	}
	if r.n < len(r.t) {
		r.n++
	}
}

// series copies the live window, oldest first, into a stats.Series.
func (r *ring) series() *stats.Series {
	if r.n == 0 {
		return nil
	}
	s := &stats.Series{
		T: make([]units.Time, 0, r.n),
		V: make([]float64, 0, r.n),
	}
	start := r.head - r.n
	if start < 0 {
		start += len(r.t)
	}
	for i := 0; i < r.n; i++ {
		j := start + i
		if j >= len(r.t) {
			j -= len(r.t)
		}
		s.Append(r.t[j], r.v[j])
	}
	return s
}

// Series returns the recorded occupancy series of channel idx (the most
// recent SeriesCap samples, at most one per seriesGap), or nil when series
// recording is disabled or the channel never sampled.
func (r *Registry) Series(idx int) *stats.Series {
	if r.rings == nil {
		return nil
	}
	return r.rings[idx].series()
}
