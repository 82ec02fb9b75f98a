package experiments

import (
	"fmt"
	"math/rand"
	"slices"

	"github.com/gfcsim/gfc/internal/stats"
	"github.com/gfcsim/gfc/internal/units"
	"github.com/gfcsim/gfc/internal/workload"
)

// Fig15Rows regenerates the Figure 15 input: the enterprise flow-size CDF
// at the paper's axis points, as (size, cumulative probability) rows.
func Fig15Rows() *stats.Table {
	d := workload.Enterprise()
	t := &stats.Table{Header: []string{"Flow size", "CDF (analytic)", "CDF (sampled)"}}
	rng := rand.New(rand.NewSource(1))
	const n = 100000
	samples := make([]units.Size, n)
	for i := range samples {
		samples[i] = d.Sample(rng)
	}
	for _, s := range []units.Size{
		500 * units.Byte, units.KB, 10 * units.KB, 100 * units.KB,
		units.MB, 10 * units.MB, 30 * units.MB,
	} {
		count := 0
		for _, v := range samples {
			if v <= s {
				count++
			}
		}
		t.AddRow(s.String(),
			fmt.Sprintf("%.3f", d.CDFAt(s)),
			fmt.Sprintf("%.3f", float64(count)/n))
	}
	return t
}

// Table1Rows renders Table 1 (deadlock cases per scale and scheme) from
// sweep results keyed by scale.
func Table1Rows(results map[int]map[FC]*SweepResult, scales []int) *stats.Table {
	t := &stats.Table{Header: []string{"Scale", "CBD-prone", "PFC", "GFC-buffer", "CBFC", "GFC-time"}}
	for _, k := range scales {
		row := results[k]
		if row == nil {
			continue
		}
		prone := 0
		cell := func(fc FC) string {
			r := row[fc]
			if r == nil {
				return "-"
			}
			prone = r.CBDProne
			return fmt.Sprintf("%d", r.DeadlockCases)
		}
		pfc, gfcb, cbfc, gfct := cell(PFC), cell(GFCBuf), cell(CBFC), cell(GFCTime)
		t.AddRow(fmt.Sprintf("k=%d", k), fmt.Sprintf("%d", prone), pfc, gfcb, cbfc, gfct)
	}
	return t
}

// Fig16Rows renders the average available bandwidth comparison (per-host
// goodput over deadlock-free runs).
func Fig16Rows(results map[int]map[FC]*SweepResult, scales []int) *stats.Table {
	t := &stats.Table{Header: []string{"Scale", "Scheme", "Mean BW/host", "Stddev"}}
	for _, k := range scales {
		for _, fc := range AllFCs() {
			r := results[k][fc]
			if r == nil || r.Bandwidth.Len() == 0 {
				continue
			}
			t.AddRow(fmt.Sprintf("k=%d", k), string(fc),
				units.Rate(r.Bandwidth.Mean()).String(),
				units.Rate(r.Bandwidth.Stddev()).String())
		}
	}
	return t
}

// Fig17Rows renders the average slowdown comparison, normalised to the
// minimum within each scale as in the paper.
func Fig17Rows(results map[int]map[FC]*SweepResult, scales []int) *stats.Table {
	t := &stats.Table{Header: []string{"Scale", "Scheme", "Mean slowdown", "Normalised"}}
	for _, k := range scales {
		var fcs []FC
		var means []float64
		for _, fc := range AllFCs() {
			if r := results[k][fc]; r != nil && r.Slowdown.Len() > 0 {
				fcs, means = append(fcs, fc), append(means, r.Slowdown.Mean())
			}
		}
		for i, fc := range fcs {
			t.AddRow(fmt.Sprintf("k=%d", k), string(fc),
				fmt.Sprintf("%.2f", means[i]), fmt.Sprintf("%.3f", means[i]/slices.Min(means)))
		}
	}
	return t
}
