package viz

import (
	"strings"
	"testing"

	"github.com/gfcsim/gfc/internal/stats"
	"github.com/gfcsim/gfc/internal/units"
)

func TestChartRender(t *testing.T) {
	s := &stats.Series{}
	for i := 0; i < 200; i++ {
		s.Append(units.Time(i)*units.Microsecond, float64(i%100))
	}
	out := Chart{YLabel: "queue"}.Render(s)
	if !strings.Contains(out, "queue (max") {
		t.Fatalf("missing header:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// header + 12 rows + axis + range line.
	if len(lines) != 15 {
		t.Fatalf("lines = %d, want 15:\n%s", len(lines), out)
	}
	if !strings.Contains(out, "*") {
		t.Fatal("no data points plotted")
	}
	// Width respected: plotted rows are at most 72+1 chars.
	for _, l := range lines[1:13] {
		if len(l) > 73 {
			t.Fatalf("row too wide: %d", len(l))
		}
	}
}

func TestChartEmpty(t *testing.T) {
	out := Chart{YLabel: "x"}.Render(&stats.Series{})
	if !strings.Contains(out, "no data") {
		t.Fatalf("empty series: %q", out)
	}
	if out := (Chart{YLabel: "x"}).Render(nil); !strings.Contains(out, "no data") {
		t.Fatalf("nil series: %q", out)
	}
}

func TestChartFlatAndZero(t *testing.T) {
	s := &stats.Series{}
	for i := 0; i < 10; i++ {
		s.Append(units.Time(i), 0)
	}
	out := Chart{YLabel: "zeros"}.Render(s)
	if !strings.Contains(out, "*") {
		t.Fatal("zero series should still plot on the baseline")
	}
}

func TestChartCustomFormat(t *testing.T) {
	s := &stats.Series{}
	s.Append(0, 5e9)
	s.Append(1, 10e9)
	out := Chart{YLabel: "rate", FormatY: FormatRate}.Render(s)
	if !strings.Contains(out, "10Gbps") {
		t.Fatalf("rate formatting missing:\n%s", out)
	}
}

func TestRateSeries(t *testing.T) {
	bc := stats.NewBinCounter(units.Millisecond)
	bc.Add(0, 1250) // 10 Mb/s in a 1ms bin... 1250B*8/1ms = 10Mbps
	bc.Add(units.Millisecond, 2500)
	s := RateSeries(bc)
	if s.Len() != 2 {
		t.Fatalf("len = %d", s.Len())
	}
	if s.V[0] != 10e6 || s.V[1] != 20e6 {
		t.Fatalf("rates = %v", s.V)
	}
	if FormatSize(1000) != "1KB" {
		t.Fatal("FormatSize wrong")
	}
}
