package main

import (
	"fmt"
	"io"
)

// printWorkload prints every end-to-end metric of one workload by name with
// its unit, min / median / max over the repetitions, and the noise guard's
// verdict.
func printWorkload(w io.Writer, r *WorkloadReport) {
	fmt.Fprintf(w, "== %s: %d reps, %d operations attempted, %d failed (failed_share %.4f)\n",
		r.Name, r.Reps, r.Attempted, r.Failed, r.FailedShare())
	for _, name := range sortedKeys(r.Metrics) {
		m := r.Metrics[name]
		note := ""
		if m.Unresolved {
			note = fmt.Sprintf("  unresolved: spread %.1f%% > bound %.0f%%", 100*(m.Max-m.Min)/m.Median, 100*m.Bound)
		}
		fmt.Fprintf(w, "  %-14s %12.6g %-4s (min %.6g max %.6g, %s is better)%s\n",
			name, m.Median, m.Unit, m.Min, m.Max, m.Better, note)
	}
	for _, k := range sortedKeys(r.Info) {
		fmt.Fprintf(w, "  %-14s %12.4f\n", k, r.Info[k])
	}
	for _, k := range sortedKeys(r.Sim) {
		fmt.Fprintf(w, "  %s = %d\n", k, r.Sim[k])
	}
	if t := r.Traced; t != nil {
		fmt.Fprintf(w, "  traced rep: wall %.3f s, overhead %+.1f%%, unattributed %.1f%%\n",
			t.WallS, 100*t.OverheadShare, 100*t.UnattributedShare)
		for _, s := range t.Spans {
			fmt.Fprintf(w, "    %-28s n=%-5d total %10.2f ms  self %10.2f ms\n", s.Name, s.Count, s.TotalMs, s.SelfMs)
		}
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

func printLayers(w io.Writer, layers map[string]LayerValue) {
	fmt.Fprintln(w, "== per-layer metrics")
	for _, d := range perLayer {
		v := layers[d.Name]
		fmt.Fprintf(w, "  %-36s %14.3f %-6s", d.Name, v.Value, d.Unit)
		if v.N > 0 {
			fmt.Fprintf(w, " n=%d", v.N)
		}
		if v.TailPct > 0 {
			fmt.Fprintf(w, " p%g=%.3f", v.TailPct, v.Tail)
		}
		fmt.Fprintln(w)
	}
}
