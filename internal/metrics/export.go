package metrics

import (
	"slices"

	"github.com/gfcsim/gfc/internal/stats"
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

// ChannelReport is the per-channel slice of a Report: the channel's identity
// and allocation, its counter block and occupancy series. Channels with no
// activity at all are omitted from reports to keep fat-tree exports small.
type ChannelReport struct {
	Node    string     `json:"node"`
	Port    int        `json:"port"`
	From    string     `json:"from"`
	Host    bool       `json:"host,omitempty"`
	Buffer  units.Size `json:"buffer_bytes"`
	Ceiling units.Size `json:"ceiling_bytes,omitempty"`
	Counters
	Occupancy *stats.Series `json:"occupancy_series,omitempty"`
}

// Report is a full point-in-time export of the registry.
type Report struct {
	At                  units.Time      `json:"at_ns"`
	Totals              Summary         `json:"totals"`
	Channels            []ChannelReport `json:"channels"`
	Violations          []Violation     `json:"violations,omitempty"`
	ViolationsTruncated int64           `json:"violations_truncated,omitempty"`
	Faults              []FaultEvent    `json:"faults,omitempty"`
	FaultsTruncated     int64           `json:"faults_truncated,omitempty"`
}

// Report builds the export at simulation time at (the caller's clock; the
// registry does not keep one).
func (r *Registry) Report(at units.Time) *Report {
	rep := &Report{
		At:                  at,
		Totals:              r.Summary(),
		Violations:          slices.Clone(r.violations),
		ViolationsTruncated: r.truncated,
		Faults:              slices.Clone(r.faults),
		FaultsTruncated:     r.faultsTruncated,
	}
	for idx := range r.chans {
		c := &r.counters[idx]
		if c.BytesIn == 0 && c.BytesOut == 0 && c.FeedbackMsgs == 0 && c.Drops == 0 {
			continue
		}
		ch := r.chans[idx]
		rep.Channels = append(rep.Channels, ChannelReport{
			Node: ch.NodeName, Port: ch.Port,
			From: ch.FromName, Host: ch.Host,
			Buffer: r.buffers[idx], Ceiling: r.ceilings[idx],
			Counters: *c, Occupancy: r.Series(idx),
		})
	}
	return rep
}
