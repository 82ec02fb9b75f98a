// Package viz renders time series and CDFs as compact ASCII charts for the
// CLI and examples — enough to see the shape of a queue trace or a rate
// evolution in a terminal, in the spirit of the paper's figures.
package viz

import (
	"fmt"
	"math"
	"strings"

	"github.com/gfcsim/gfc/internal/stats"
	"github.com/gfcsim/gfc/internal/units"
)

// The chart's size in character cells.
const width, height = 72, 12

// Chart renders series as a 72×12-cell ASCII line chart. The series is
// resampled to the width; the y-axis is scaled to [0, max]. YLabel names the
// quantity; the value formatter turns a y value into an axis label (nil:
// %.3g).
type Chart struct {
	YLabel  string
	FormatY func(float64) string
}

// Render draws the series.
func (c Chart) Render(s *stats.Series) string {
	fy := c.FormatY
	if fy == nil {
		fy = func(v float64) string { return fmt.Sprintf("%.3g", v) }
	}
	if s == nil || s.Len() == 0 {
		return "(no data)\n"
	}
	d := s.Downsample(width)
	ymax := d.Max()
	if ymax <= 0 {
		ymax = 1
	}

	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", len(d.V)))
	}
	for col, v := range d.V {
		level := int(math.Round(v / ymax * float64(height-1)))
		if level < 0 {
			level = 0
		}
		if level >= height {
			level = height - 1
		}
		row := height - 1 - level
		grid[row][col] = '*'
	}

	var b strings.Builder
	top := fy(ymax)
	fmt.Fprintf(&b, "%s (max %s)\n", c.YLabel, top)
	for r := range grid {
		b.WriteByte('|')
		b.Write(grid[r])
		b.WriteByte('\n')
	}
	b.WriteByte('+')
	b.WriteString(strings.Repeat("-", len(d.V)))
	b.WriteByte('\n')
	fmt.Fprintf(&b, " %s .. %s\n",
		d.T[0].Duration(), d.T[len(d.T)-1].Duration())
	return b.String()
}

// RateSeries converts a BinCounter into a Series of rates for charting.
func RateSeries(bc *stats.BinCounter) *stats.Series {
	s := &stats.Series{}
	for i, r := range bc.Rates() {
		s.Append(units.Time(i)*bc.Width, float64(r))
	}
	return s
}

// FormatRate renders a y value that is a rate in bits/s.
func FormatRate(v float64) string { return units.Rate(v).String() }

// FormatSize renders a y value that is a size in bytes.
func FormatSize(v float64) string { return units.Size(v).String() }
