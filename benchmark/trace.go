package main

import (
	"sort"
	"sync"
	"time"
)

// Span is one timed interval at a layer boundary the harness crosses.
// Parent is the index of the causing span in the recorder (-1 for a root);
// spans of one workload repetition share Workload and Rep.
type Span struct {
	Name     string           `json:"name"`
	StartNs  int64            `json:"start_ns"`
	EndNs    int64            `json:"end_ns"`
	Parent   int              `json:"parent"`
	Workload string           `json:"workload"`
	Rep      int              `json:"rep"`
	Counts   map[string]int64 `json:"counts,omitempty"`
}

// Tracer records spans in memory; they are written out when the benchmark
// ends. A nil *Tracer records nothing, so untraced runs pay one nil check
// per boundary. Sweep cells open spans from two worker goroutines, hence the
// mutex.
type Tracer struct {
	mu       sync.Mutex
	epoch    time.Time
	workload string
	rep      int
	spans    []Span
}

func newTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// spanRef addresses an open span; the zero value (from a nil Tracer) is inert.
type spanRef struct {
	t  *Tracer
	id int
}

// start opens a span under parent (use spanRef{} for a root).
func (t *Tracer) start(name string, parent spanRef) spanRef {
	if t == nil {
		return spanRef{}
	}
	p := -1
	if parent.t != nil {
		p = parent.id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{
		Name: name, Parent: p, Workload: t.workload, Rep: t.rep,
		StartNs: time.Since(t.epoch).Nanoseconds(),
	})
	return spanRef{t, len(t.spans) - 1}
}

func (s spanRef) end() {
	if s.t == nil {
		return
	}
	now := time.Since(s.t.epoch).Nanoseconds()
	s.t.mu.Lock()
	s.t.spans[s.id].EndNs = now
	s.t.mu.Unlock()
}

// count attaches a counter to the span, so ratios are measured where the
// work happens.
func (s spanRef) count(key string, v int64) {
	if s.t == nil {
		return
	}
	s.t.mu.Lock()
	sp := &s.t.spans[s.id]
	if sp.Counts == nil {
		sp.Counts = map[string]int64{}
	}
	sp.Counts[key] += v
	s.t.mu.Unlock()
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its direct children cover. Children may overlap each other (parallel
// sweep cells) and are clipped to the parent, so the covered part is the
// length of the union of the clipped child intervals.
func selfTimes(spans []Span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		type iv struct{ lo, hi int64 }
		var ivs []iv
		for _, k := range kids[i] {
			lo, hi := max(spans[k].StartNs, s.StartNs), min(spans[k].EndNs, s.EndNs)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, reach int64
		reach = s.StartNs
		for _, v := range ivs {
			if v.hi <= reach {
				continue
			}
			covered += v.hi - max(v.lo, reach)
			reach = v.hi
		}
		self[i] = (s.EndNs - s.StartNs) - covered
	}
	return self
}

// SpanSummary aggregates the spans of one name within one workload.
type SpanSummary struct {
	Name    string           `json:"name"`
	Count   int              `json:"count"`
	TotalMs float64          `json:"total_ms"`
	SelfMs  float64          `json:"self_ms"`
	Counts  map[string]int64 `json:"counts,omitempty"`
}

// summariseSpans groups one workload's spans by name (indexed spans such as
// cell[12] fold into cell[]), in first-seen order, and reports the share of
// the root span's time that sits in structural spans — those with children —
// as self time: time between layer boundaries that no layer span covers.
func summariseSpans(spans []Span, workload string) (rows []SpanSummary, unattributed float64) {
	self := selfTimes(spans)
	hasKids := make([]bool, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			hasKids[s.Parent] = true
		}
	}
	idx := map[string]int{}
	var rootNs, gapNs int64
	for i, s := range spans {
		if s.Workload != workload {
			continue
		}
		if s.Parent < 0 {
			rootNs += s.EndNs - s.StartNs
		}
		if hasKids[i] {
			gapNs += self[i]
		}
		name := foldIndex(s.Name)
		j, ok := idx[name]
		if !ok {
			j = len(rows)
			idx[name] = j
			rows = append(rows, SpanSummary{Name: name})
		}
		r := &rows[j]
		r.Count++
		r.TotalMs += float64(s.EndNs-s.StartNs) / 1e6
		r.SelfMs += float64(self[i]) / 1e6
		for k, v := range s.Counts {
			if r.Counts == nil {
				r.Counts = map[string]int64{}
			}
			r.Counts[k] += v
		}
	}
	if rootNs > 0 {
		unattributed = float64(gapNs) / float64(rootNs)
	}
	return rows, unattributed
}

// foldIndex turns "cell[12]" into "cell[]".
func foldIndex(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '[' && name[len(name)-1] == ']' {
			return name[:i] + "[]"
		}
	}
	return name
}
