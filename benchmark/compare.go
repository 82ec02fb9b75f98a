package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// verdict judges candidate b against baseline a on one metric. A metric
// whose spread over either side's repetitions is wider than the bound is
// unresolved, not unchanged — unless every repetition of b reads better than
// every repetition of a.
func verdict(a, b Summary) string {
	worse, clear := b.Median-a.Median, b.Max < a.Min
	if a.Better == Higher {
		worse, clear = a.Median-b.Median, b.Min > a.Max
	}
	switch {
	case a.Median != 0 && worse/a.Median > a.Bound:
		return "regressed"
	case (a.Unresolved || b.Unresolved) && !clear:
		return "unresolved"
	default:
		return "ok"
	}
}

// compareFiles prints one row per (metric, workload) present in both
// reports: both medians, the ratio with its base, the bound and the verdict.
// Simulated statistics must match exactly. It reports whether anything
// regressed.
func compareFiles(w io.Writer, pathA, pathB string) (regressed bool, err error) {
	a, err := readReport(pathA)
	if err != nil {
		return false, err
	}
	b, err := readReport(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "base a = %s (seed %d), b = %s (seed %d); ratio = b/a\n", pathA, a.Seed, pathB, b.Seed)
	fmt.Fprintf(w, "%-16s %-14s %14s %14s %8s %6s  %s\n", "workload", "metric", "a", "b", "b/a", "bound", "verdict")
	for _, wa := range a.Workloads {
		var wb *WorkloadReport
		for _, c := range b.Workloads {
			if c.Name == wa.Name {
				wb = c
			}
		}
		if wb == nil {
			continue
		}
		for _, name := range sortedKeys(wa.Metrics) {
			ma := wa.Metrics[name]
			mb, ok := wb.Metrics[name]
			if !ok {
				continue
			}
			v := verdict(ma, mb)
			regressed = regressed || v == "regressed"
			fmt.Fprintf(w, "%-16s %-14s %14.6g %14.6g %8.4f %5.0f%%  %s\n",
				wa.Name, name, ma.Median, mb.Median, mb.Median/ma.Median, 100*ma.Bound, v)
		}
		if fa, fb := wa.FailedShare(), wb.FailedShare(); fb > fa {
			regressed = true
			fmt.Fprintf(w, "%-16s %-14s %14.4f %14.4f %8s %5.0f%%  regressed\n", wa.Name, "failed_share", fa, fb, "", 0.0)
		}
		if a.Seed == b.Seed {
			for _, k := range sortedKeys(wa.Sim) {
				if vb, ok := wb.Sim[k]; ok && vb != wa.Sim[k] {
					regressed = true
					fmt.Fprintf(w, "%-16s %-14s %14d %14d  simulated statistic differs: regressed\n", wa.Name, k, wa.Sim[k], vb)
				}
			}
		}
	}
	for _, d := range perLayer {
		la, okA := a.Layers[d.Name]
		lb, okB := b.Layers[d.Name]
		if okA && okB && la.Value != 0 {
			fmt.Fprintf(w, "%-16s %-36s %14.3f %14.3f %8.4f\n", "layer", d.Name, la.Value, lb.Value, lb.Value/la.Value)
		}
	}
	return regressed, nil
}
