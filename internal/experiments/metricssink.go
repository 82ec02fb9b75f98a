package experiments

import (
	"encoding/json"
	"fmt"
	"os"

	"github.com/gfcsim/gfc/internal/metrics"
	"github.com/gfcsim/gfc/internal/units"
)

// MetricsSink collects one metrics registry per sub-run of an experiment and
// writes them all to -metrics-out at exit. A nil sink (flag unset) is fully
// inert: Registry hands drivers a nil *metrics.Registry, which keeps the
// simulator's observability hooks disabled.
type MetricsSink struct {
	path string
	runs []metricsRun
}

// metricsRun is one run's record; its tags are the report file's entries.
type metricsRun struct {
	Name   string          `json:"run"`
	Report *metrics.Report `json:"report"`
	err    error
}

// NewMetricsSink returns the sink writing a JSON array of run reports to
// path, whatever its suffix; nil for an empty path.
func NewMetricsSink(path string) *MetricsSink {
	if path == "" {
		return nil
	}
	return &MetricsSink{path: path}
}

// Registry returns a fresh registry for one simulation run, or nil when the
// sink is disabled. Each run gets its own instance — a registry binds to
// exactly one network.
func (s *MetricsSink) Registry() *metrics.Registry {
	if s == nil {
		return nil
	}
	return metrics.New(metrics.Options{SeriesCap: 2048})
}

// Record snapshots reg after the named run finished at simulated time at.
func (s *MetricsSink) Record(name string, reg *metrics.Registry, at units.Time) {
	if s == nil || reg == nil {
		return
	}
	s.runs = append(s.runs, metricsRun{Name: name, Report: reg.Report(at), err: reg.Err()})
}

// Flush writes the collected reports and then returns the first invariant
// violation (the report is written first so a failing run still leaves its
// evidence on disk).
func (s *MetricsSink) Flush() error {
	if s == nil || len(s.runs) == 0 {
		return nil
	}
	f, err := os.Create(s.path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s.runs); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "metrics: wrote %d run report(s) to %s\n", len(s.runs), s.path)
	for _, r := range s.runs {
		if r.err != nil {
			return fmt.Errorf("run %s violated invariants: %w", r.Name, r.err)
		}
	}
	return nil
}
