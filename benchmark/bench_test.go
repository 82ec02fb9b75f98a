package main

import (
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	// root [0,100] has children a [10,40], b [30,60] (overlaps a) and
	// c [90,120] (runs past the parent); a has a nested child d [15,25].
	spans := []Span{
		{Name: "root", StartNs: 0, EndNs: 100, Parent: -1},
		{Name: "a", StartNs: 10, EndNs: 40, Parent: 0},
		{Name: "b", StartNs: 30, EndNs: 60, Parent: 0},
		{Name: "c", StartNs: 90, EndNs: 120, Parent: 0},
		{Name: "d", StartNs: 15, EndNs: 25, Parent: 1},
	}
	// root: 100 − |[10,60] ∪ [90,100]| = 100 − 60 = 40; a: 30 − 10 = 20.
	want := []int64{40, 20, 30, 30, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}

	// A child wholly inside another child adds nothing.
	spans = []Span{
		{Name: "root", StartNs: 0, EndNs: 50, Parent: -1},
		{Name: "outer", StartNs: 5, EndNs: 45, Parent: 0},
		{Name: "inner", StartNs: 10, EndNs: 20, Parent: 0},
	}
	if got := selfTimes(spans)[0]; got != 10 {
		t.Errorf("self time with a contained sibling = %d, want 10", got)
	}
}

func TestSummariseSpans(t *testing.T) {
	tr := newTracer()
	tr.workload = "w"
	root := tr.start("w", spanRef{})
	run := tr.start("run", root)
	for _, name := range []string{"cell[0]", "cell[1]"} {
		c := tr.start(name, run)
		c.count("events", 5)
		c.end()
	}
	run.end()
	root.end()
	rows, gap := summariseSpans(tr.spans, "w")
	if len(rows) != 3 || rows[2].Name != "cell[]" || rows[2].Count != 2 || rows[2].Counts["events"] != 10 {
		t.Errorf("rows = %+v", rows)
	}
	if gap < 0 || gap > 1 {
		t.Errorf("unattributed share %v outside [0,1]", gap)
	}
	// A nil tracer is inert.
	var none *Tracer
	s := none.start("x", spanRef{})
	s.count("k", 1)
	s.end()
}

func TestTail(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: tail must sort
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		pct  float64
		want float64
		ok   bool
	}{
		{39, 0, 0, false},     // p75 → rank 30, 9 beyond
		{40, 75, 30, true},    // p75 → rank 30, 10 beyond
		{100, 90, 90, true},   // p95 → rank 95, only 5 beyond
		{200, 95, 190, true},  // p99 → rank 198, 2 beyond
		{1000, 99, 990, true}, // p99.9 → rank 999, 1 beyond
		{10000, 99.9, 9990, true},
	} {
		pct, v, ok := tail(seq(c.n))
		if pct != c.pct || v != c.want || ok != c.ok {
			t.Errorf("tail(n=%d) = p%v %v %v, want p%v %v %v", c.n, pct, v, ok, c.pct, c.want, c.ok)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
}

func TestVerdict(t *testing.T) {
	base := Summary{Better: Lower, Bound: 0.10, Median: 100, Min: 99, Max: 101}
	for _, c := range []struct {
		b    Summary
		want string
	}{
		{Summary{Median: 105, Min: 104, Max: 106}, "ok"},
		{Summary{Median: 111, Min: 110, Max: 112}, "regressed"},
		{Summary{Median: 95, Min: 80, Max: 130, Unresolved: true}, "unresolved"},
		{Summary{Median: 80, Min: 70, Max: 98, Unresolved: true}, "ok"}, // every rep better
	} {
		if got := verdict(base, c.b); got != c.want {
			t.Errorf("verdict(%+v) = %s, want %s", c.b, got, c.want)
		}
	}
	up := Summary{Better: Higher, Bound: 0.10, Median: 100, Min: 99, Max: 101}
	if got := verdict(up, Summary{Median: 89, Min: 88, Max: 90}); got != "regressed" {
		t.Errorf("higher-is-better drop = %s", got)
	}
}

// declared mirrors ../BENCHMARK.json.
type declared struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestDeclaredNames holds the binary's vocabulary and ../BENCHMARK.json to
// each other: same workloads, same metrics with the same unit, direction
// and bound, every name within the contract's character set, no orphan on
// either side.
func TestDeclaredNames(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	check := func(kind, name, unit string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q outside the allowed characters", kind, name)
		}
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("%s %s: unit %q outside the allowed characters", kind, name, unit)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}

	var got, want []string
	for _, w := range workloads {
		check("workload", w.name, "")
		got = append(got, w.name)
	}
	for _, w := range d.Workloads {
		want = append(want, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters (%d)", w.Name, len(w.Why))
		}
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("workloads: binary %v, BENCHMARK.json %v", got, want)
	}

	type row struct {
		unit, better string
		bound        float64
	}
	bin := map[string]row{}
	for _, m := range endToEnd {
		check("end-to-end", m.Name, m.Unit)
		bin[m.Name] = row{m.Unit, string(m.Better), m.Bound}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range d.EndToEnd {
		if r, ok := bin[m.Name]; !ok || r != (row{m.Unit, m.Better, m.Bound}) {
			t.Errorf("end-to-end %s: BENCHMARK.json %+v, binary %+v (declared %v)", m.Name, m, r, ok)
		}
		delete(bin, m.Name)
	}
	for name := range bin {
		t.Errorf("end-to-end %s is emitted but not declared", name)
	}
	if r, ok := bin["setup_s"]; ok || len(d.EndToEnd) == 0 {
		t.Errorf("setup_s must be declared (%v)", r)
	}

	bin = map[string]row{}
	for _, m := range perLayer {
		check("per-layer", m.Name, m.Unit)
		bin[m.Name] = row{m.Unit, string(m.Better), 0}
	}
	for _, m := range d.PerLayer {
		if r, ok := bin[m.Name]; !ok || r != (row{m.Unit, m.Better, 0}) {
			t.Errorf("per-layer %s: BENCHMARK.json %+v, binary %+v (declared %v)", m.Name, m, r, ok)
		}
		delete(bin, m.Name)
	}
	for name := range bin {
		t.Errorf("per-layer %s is emitted but not declared", name)
	}
	if len(d.Paths) != 1 || d.Paths[0] != "benchmark" || d.RunSeconds < 1 || d.RunSeconds > 60 {
		t.Errorf("paths %v run_seconds %d", d.Paths, d.RunSeconds)
	}
}

// TestSmoke runs all five workloads, traced, and the per-layer ladder at
// tiny sizes: every correctness check passes, every declared name gets a
// value, and the result lines carry exactly the declared metrics.
func TestSmoke(t *testing.T) {
	env := &env{seed: 1, size: smokeSizes, dir: t.TempDir()}
	rep := &Report{Traced: true}
	tr := newTracer()
	for _, w := range workloads {
		env.tr = tr
		wr, err := measure(w, env, 0)
		if err != nil {
			t.Fatal(err)
		}
		if wr.Failed != 0 || wr.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", w.name, wr.Failed, wr.Attempted, wr.Failures)
		}
		for _, m := range endToEnd {
			if s, ok := wr.Metrics[m.Name]; !ok || s.Median <= 0 {
				t.Errorf("%s: %s = %+v, want a positive value", w.name, m.Name, s)
			}
		}
		if wr.Traced == nil || len(wr.Traced.Spans) < 3 {
			t.Errorf("%s: traced repetition missing: %+v", w.name, wr.Traced)
		}
		for k := range wr.Sim {
			if !nameRE.MatchString(k) {
				t.Errorf("%s: count name %q outside the allowed characters", w.name, k)
			}
		}
		rep.Workloads = append(rep.Workloads, wr)
	}
	for _, wr := range rep.Workloads {
		_, has := wr.Metrics[eventsPerS.Name]
		if want := wr.Name == "ring_packet" || wr.Name == "clos1024_packet"; has != want {
			t.Errorf("%s: events_per_s present = %v, want %v", wr.Name, has, want)
		}
	}

	layers, err := measureLayers(env)
	if err != nil {
		t.Fatal(err)
	}
	layers["trace.overhead_share"] = LayerValue{Value: rep.Workloads[0].Traced.OverheadShare}
	layers["trace.unattributed_share"] = LayerValue{Value: rep.Workloads[0].Traced.UnattributedShare}
	var names []string
	for _, d := range perLayer {
		if _, ok := layers[d.Name]; !ok {
			t.Errorf("per-layer %s declared but not measured", d.Name)
		}
		names = append(names, d.Name)
	}
	sort.Strings(names)
	if got := sortedKeys(layers); strings.Join(got, " ") != strings.Join(names, " ") {
		t.Errorf("measured per-layer names %v, declared %v", got, names)
	}
	rep.Layers = layers

	for _, traced := range []bool{true, false} {
		rep.Traced = traced
		one := *rep
		one.Workloads = rep.Workloads[:1]
		line, failed := resultLine(&one)
		var res struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]struct {
				Value *float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(line), &res); err != nil {
			t.Fatal(err)
		}
		want := len(endToEnd)
		if traced {
			want = len(perLayer)
		}
		if failed || !res.Correct || res.Attempted < 1 || len(res.Metrics) != want {
			t.Errorf("traced=%v: result line %s", traced, line)
		}
	}
}
