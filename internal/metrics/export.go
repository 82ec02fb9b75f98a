package metrics

import (
	"fmt"
	"strconv"

	"github.com/gfcsim/gfc/internal/units"
)

// Summary is a compact roll-up over all channels — what sweep-scale callers
// aggregate instead of full reports.
type Summary struct {
	Channels       int        `json:"channels"`
	BytesIn        units.Size `json:"bytes_in"`
	BytesOut       units.Size `json:"bytes_out"`
	Drops          int64      `json:"drops"`
	MaxOccupancy   units.Size `json:"max_occupancy"`
	FeedbackMsgs   int64      `json:"feedback_msgs"`
	FeedbackWire   units.Size `json:"feedback_wire_bytes"`
	PauseMsgs      int64      `json:"pause_msgs"`
	ResumeMsgs     int64      `json:"resume_msgs"`
	StageMsgs      int64      `json:"stage_msgs"`
	CreditMsgs     int64      `json:"credit_msgs"`
	QueueMsgs      int64      `json:"queue_msgs"`
	Violations     int64      `json:"violations"`
	FaultsInjected int64      `json:"faults_injected,omitempty"`
}

// Summary rolls up the registry's counters.
func (r *Registry) Summary() Summary {
	s := Summary{
		Channels:       len(r.chans),
		Violations:     int64(len(r.violations)) + r.truncated,
		FaultsInjected: r.faultCount,
	}
	for i := range r.counters {
		c := &r.counters[i]
		s.BytesIn += c.BytesIn
		s.BytesOut += c.BytesOut
		s.Drops += c.Drops
		if c.HighWater > s.MaxOccupancy {
			s.MaxOccupancy = c.HighWater
		}
		s.FeedbackMsgs += c.FeedbackMsgs
		s.FeedbackWire += c.FeedbackWire
		s.PauseMsgs += c.PauseMsgs
		s.ResumeMsgs += c.ResumeMsgs
		s.StageMsgs += c.StageMsgs
		s.CreditMsgs += c.CreditMsgs
		s.QueueMsgs += c.QueueMsgs
	}
	return s
}

// SwitchHighWater returns the maximum occupancy high-water mark over the
// switch ingress channels (host channels excluded) — the quantity the
// network-wide analytic envelope bounds (NetworkBounds.MaxOccupancy).
func (r *Registry) SwitchHighWater() units.Size {
	var hw units.Size
	for i := range r.counters {
		if r.chans[i].Host {
			continue
		}
		if c := r.counters[i].HighWater; c > hw {
			hw = c
		}
	}
	return hw
}

// SeriesDump is an exported occupancy series.
type SeriesDump struct {
	T []units.Time `json:"t_ns"`
	V []float64    `json:"v"`
}

// ChannelReport is the per-channel slice of a Report. Channels with no
// activity at all are omitted from reports to keep fat-tree exports small.
type ChannelReport struct {
	Node    string     `json:"node"`
	Port    int        `json:"port"`
	From    string     `json:"from"`
	Host    bool       `json:"host,omitempty"`
	Buffer  units.Size `json:"buffer_bytes"`
	Ceiling units.Size `json:"ceiling_bytes,omitempty"`

	BytesIn      units.Size  `json:"bytes_in"`
	BytesOut     units.Size  `json:"bytes_out"`
	Departed     units.Size  `json:"departed_bytes"`
	HighWater    units.Size  `json:"occupancy_high_water"`
	LastDepartAt units.Time  `json:"last_depart_ns,omitempty"`
	Admits       int64       `json:"admits"`
	Drops        int64       `json:"drops,omitempty"`
	FeedbackMsgs int64       `json:"feedback_msgs"`
	FeedbackWire units.Size  `json:"feedback_wire_bytes"`
	PauseMsgs    int64       `json:"pause_msgs,omitempty"`
	ResumeMsgs   int64       `json:"resume_msgs,omitempty"`
	StageMsgs    int64       `json:"stage_msgs,omitempty"`
	CreditMsgs   int64       `json:"credit_msgs,omitempty"`
	QueueMsgs    int64       `json:"queue_msgs,omitempty"`
	LastStage    int32       `json:"last_stage,omitempty"`
	MaxStage     int32       `json:"max_stage,omitempty"`
	Occupancy    *SeriesDump `json:"occupancy_series,omitempty"`
}

// ViolationReport is the exported form of a Violation.
type ViolationReport struct {
	Kind        string     `json:"kind"`
	At          units.Time `json:"at_ns"`
	Node        string     `json:"node"`
	Port        int        `json:"port"`
	From        string     `json:"from"`
	Occupancy   units.Size `json:"occupancy"`
	Limit       units.Size `json:"limit"`
	Detail      string     `json:"detail,omitempty"`
	FaultsSoFar int64      `json:"faults_so_far,omitempty"`
}

// Report is a full point-in-time export of the registry.
type Report struct {
	At                  units.Time        `json:"at_ns"`
	Totals              Summary           `json:"totals"`
	Channels            []ChannelReport   `json:"channels"`
	Violations          []ViolationReport `json:"violations,omitempty"`
	ViolationsTruncated int64             `json:"violations_truncated,omitempty"`
	Faults              []FaultReport     `json:"faults,omitempty"`
	FaultsTruncated     int64             `json:"faults_truncated,omitempty"`
}

// Report builds the export at simulation time at (the caller's clock; the
// registry does not keep one).
func (r *Registry) Report(at units.Time) *Report {
	rep := &Report{
		At:                  at,
		Totals:              r.Summary(),
		ViolationsTruncated: r.truncated,
	}
	for idx := range r.chans {
		c := &r.counters[idx]
		if c.BytesIn == 0 && c.BytesOut == 0 && c.FeedbackMsgs == 0 && c.Drops == 0 {
			continue
		}
		ch := r.chans[idx]
		cr := ChannelReport{
			Node: ch.NodeName, Port: ch.Port,
			From: ch.FromName, Host: ch.Host,
			Buffer: r.buffers[idx], Ceiling: r.ceilings[idx],
			BytesIn: c.BytesIn, BytesOut: c.BytesOut,
			Departed: c.Departed, HighWater: c.HighWater,
			LastDepartAt: c.LastDepartAt, Admits: c.Admits,
			Drops: c.Drops, FeedbackMsgs: c.FeedbackMsgs,
			FeedbackWire: c.FeedbackWire, PauseMsgs: c.PauseMsgs,
			ResumeMsgs: c.ResumeMsgs, StageMsgs: c.StageMsgs,
			CreditMsgs: c.CreditMsgs, QueueMsgs: c.QueueMsgs,
			LastStage: c.LastStage, MaxStage: c.MaxStage,
		}
		if s := r.Series(idx); s != nil {
			cr.Occupancy = &SeriesDump{T: s.T, V: s.V}
		}
		rep.Channels = append(rep.Channels, cr)
	}
	for _, v := range r.violations {
		rep.Violations = append(rep.Violations, ViolationReport{
			Kind: v.Kind.String(), At: v.At, Node: v.NodeName,
			Port: v.Port, From: v.FromName,
			Occupancy: v.Occupancy, Limit: v.Limit, Detail: v.Detail,
			FaultsSoFar: v.FaultsSoFar,
		})
	}
	rep.FaultsTruncated = r.faultsTruncated
	for _, ev := range r.faults {
		rep.Faults = append(rep.Faults, r.faultReport(ev))
	}
	return rep
}

// CSVHeader returns the column names of CSVRecords.
func CSVHeader() []string {
	return []string{
		"node", "port", "from", "host",
		"buffer_bytes", "ceiling_bytes",
		"bytes_in", "bytes_out", "departed_bytes",
		"occupancy_high_water", "admits", "drops",
		"feedback_msgs", "feedback_wire_bytes",
		"pause_msgs", "resume_msgs", "stage_msgs", "credit_msgs", "queue_msgs",
		"last_stage", "max_stage",
	}
}

// CSVRecords renders the per-channel rows (no header, no series).
func (rep *Report) CSVRecords() [][]string {
	out := make([][]string, 0, len(rep.Channels))
	for _, c := range rep.Channels {
		out = append(out, []string{
			c.Node, strconv.Itoa(c.Port), c.From,
			strconv.FormatBool(c.Host),
			strconv.FormatInt(int64(c.Buffer), 10),
			strconv.FormatInt(int64(c.Ceiling), 10),
			strconv.FormatInt(int64(c.BytesIn), 10),
			strconv.FormatInt(int64(c.BytesOut), 10),
			strconv.FormatInt(int64(c.Departed), 10),
			strconv.FormatInt(int64(c.HighWater), 10),
			strconv.FormatInt(c.Admits, 10),
			strconv.FormatInt(c.Drops, 10),
			strconv.FormatInt(c.FeedbackMsgs, 10),
			strconv.FormatInt(int64(c.FeedbackWire), 10),
			strconv.FormatInt(c.PauseMsgs, 10),
			strconv.FormatInt(c.ResumeMsgs, 10),
			strconv.FormatInt(c.StageMsgs, 10),
			strconv.FormatInt(c.CreditMsgs, 10),
			strconv.FormatInt(c.QueueMsgs, 10),
			strconv.FormatInt(int64(c.LastStage), 10),
			strconv.FormatInt(int64(c.MaxStage), 10),
		})
	}
	return out
}

// String summarises the report in one line (diagnostics).
func (rep *Report) String() string {
	return fmt.Sprintf("metrics: %d active channels, %v in / %v out, %d feedback msgs (%v), max occupancy %v, %d violations",
		len(rep.Channels), rep.Totals.BytesIn, rep.Totals.BytesOut,
		rep.Totals.FeedbackMsgs, rep.Totals.FeedbackWire,
		rep.Totals.MaxOccupancy, rep.Totals.Violations)
}
