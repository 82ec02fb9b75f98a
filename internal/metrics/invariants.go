package metrics

import (
	"fmt"
	"strings"

	"github.com/gfcsim/gfc/internal/core"
	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
)

// ViolationKind enumerates the runtime invariants the registry asserts.
type ViolationKind uint8

// Invariant kinds.
const (
	// ViolationOverflow: an ingress occupancy exceeded its buffer
	// allocation — losslessness is already lost in any real switch.
	ViolationOverflow ViolationKind = iota
	// ViolationDrop: a packet was dropped. The defining failure of a
	// lossless fabric (the simulator admits-or-drops, so overflow
	// normally manifests here).
	ViolationDrop
	// ViolationCeiling: an occupancy exceeded the theorem-derived GFC
	// ceiling (B_m plus the transient headroom the positive floor rate
	// needs, Theorems 4.1/5.1) — the flow control reacted too late.
	ViolationCeiling
	// ViolationStageRange: stage feedback carried a stage ID outside the
	// channel's stage table.
	ViolationStageRange
	// ViolationStageTable: a channel's stage table failed monotonicity
	// validation (thresholds not ascending or rates increasing).
	ViolationStageTable
	// The network-wide kinds below are produced only by CheckNetwork —
	// end-of-run assertions against an analytic prediction, never recorded
	// into the registry. New kinds must keep being appended here so the
	// numeric values of existing ones stay stable.

	// ViolationNetOccupancy: a switch channel's high-water mark exceeded
	// the analytic occupancy envelope for the run's scheme.
	ViolationNetOccupancy
	// ViolationNetThroughput: total delivered bytes exceeded the analytic
	// aggregate throughput bound (host link capacity × duration).
	ViolationNetThroughput
	// ViolationNetProgress: total delivered bytes fell below the analytic
	// progress floor of a run predicted deadlock-free.
	ViolationNetProgress
	// ViolationNetLoss: a run the analysis predicted lossless dropped
	// packets.
	ViolationNetLoss
	// ViolationNetDeadlock: a run the analysis predicted deadlock-free
	// was convicted by its deadlock detector.
	ViolationNetDeadlock
)

func (k ViolationKind) String() string {
	switch k {
	case ViolationOverflow:
		return "overflow"
	case ViolationDrop:
		return "drop"
	case ViolationCeiling:
		return "ceiling"
	case ViolationStageRange:
		return "stage-range"
	case ViolationStageTable:
		return "stage-table"
	case ViolationNetOccupancy:
		return "net-occupancy"
	case ViolationNetThroughput:
		return "net-throughput"
	case ViolationNetProgress:
		return "net-progress"
	case ViolationNetLoss:
		return "net-loss"
	case ViolationNetDeadlock:
		return "net-deadlock"
	default:
		return fmt.Sprintf("violation(%d)", uint8(k))
	}
}

// MarshalText encodes the kind by name in reports.
func (k ViolationKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// Violation is one recorded invariant failure, located on its channel; its
// tags are the report's violation records.
type Violation struct {
	Kind     ViolationKind `json:"kind"`
	At       units.Time    `json:"at_ns"`
	NodeName string        `json:"node"`
	Port     int           `json:"port"`
	FromName string        `json:"from"`
	// Occupancy and Limit carry the violated quantity and its bound
	// (for stage violations: the stage ID and table maximum).
	Occupancy units.Size `json:"occupancy"`
	Limit     units.Size `json:"limit"`
	Detail    string     `json:"detail,omitempty"`
	// FaultsSoFar is how many faults had been injected when the violation
	// fired — zero means it happened on a clean network; otherwise the
	// first FaultsSoFar faults of the report are the candidate triggers (the
	// last of them the most likely one).
	FaultsSoFar int64 `json:"faults_so_far,omitempty"`
}

func (v Violation) String() string {
	loc := fmt.Sprintf("%s port %d (from %s)", v.NodeName, v.Port, v.FromName)
	switch v.Kind {
	case ViolationNetThroughput, ViolationNetProgress, ViolationNetLoss, ViolationNetDeadlock:
		return fmt.Sprintf("%v %s network-wide: %s (%d vs bound %d)",
			v.At, v.Kind, v.Detail, int64(v.Occupancy), int64(v.Limit))
	case ViolationStageRange:
		return fmt.Sprintf("%v %s at %s: stage %d outside table (max %d)",
			v.At, v.Kind, loc, int64(v.Occupancy), int64(v.Limit))
	case ViolationStageTable:
		return fmt.Sprintf("%v %s at %s: %s", v.At, v.Kind, loc, v.Detail)
	default:
		return fmt.Sprintf("%v %s at %s: occupancy %v exceeds %v",
			v.At, v.Kind, loc, v.Occupancy, v.Limit)
	}
}

// InvariantError is the structured failure report of a run that violated at
// least one invariant.
type InvariantError struct {
	Violations []Violation
	// Truncated counts violations beyond maxViolations that were tallied
	// but not recorded in full.
	Truncated int64
}

func (e *InvariantError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "metrics: %d invariant violation(s)", int64(len(e.Violations))+e.Truncated)
	for i, v := range e.Violations {
		if i == 3 {
			fmt.Fprintf(&b, "; ... %d more", int64(len(e.Violations)-3)+e.Truncated)
			break
		}
		b.WriteString("; ")
		b.WriteString(v.String())
	}
	return b.String()
}

// violate records v against channel idx, filling in the channel identity.
func (r *Registry) violate(v Violation, idx int) {
	v.NodeName, v.Port, v.FromName = r.names(idx)
	v.FaultsSoFar = r.faultCount
	if len(r.violations) < maxViolations {
		r.violations = append(r.violations, v)
	} else {
		r.truncated++
	}
}

// Err returns nil when every invariant held, else an *InvariantError
// carrying the recorded violations — the structured report a violated run
// fails with.
func (r *Registry) Err() error {
	if len(r.violations) == 0 && r.truncated == 0 {
		return nil
	}
	return &InvariantError{Violations: r.violations, Truncated: r.truncated}
}

// ValidateStageTable statically checks the monotone behaviour practical GFC
// depends on: thresholds strictly ascending below B_m, rates positive and
// non-increasing with stage 0 at line rate, and StageFor monotone across
// every threshold.
func ValidateStageTable(t *core.StageTable) error {
	n := t.Stages()
	if n < 1 {
		return fmt.Errorf("stage table has no stages")
	}
	if t.StageRate(0) != t.C {
		return fmt.Errorf("stage 0 rate %v is not line rate %v", t.StageRate(0), t.C)
	}
	prevRate := t.C
	var prevThr units.Size
	for k := 1; k <= n; k++ {
		thr, rate := t.Threshold(k), t.StageRate(k)
		if rate <= 0 {
			return fmt.Errorf("stage %d rate %v not positive", k, rate)
		}
		if rate > prevRate {
			return fmt.Errorf("stage %d rate %v exceeds stage %d rate %v", k, rate, k-1, prevRate)
		}
		if k > 1 && thr <= prevThr {
			return fmt.Errorf("threshold B_%d (%v) not above B_%d (%v)", k, thr, k-1, prevThr)
		}
		if thr > t.Bm {
			return fmt.Errorf("threshold B_%d (%v) above B_m (%v)", k, thr, t.Bm)
		}
		if got := t.StageFor(thr); got != k {
			return fmt.Errorf("StageFor(B_%d) = %d, want %d", k, got, k)
		}
		if got := t.StageFor(thr - 1); got != k-1 {
			return fmt.Errorf("StageFor(B_%d − 1) = %d, want %d", k, got, k-1)
		}
		prevRate, prevThr = rate, thr
	}
	return nil
}

// NetworkBounds are the network-wide guarantees an analytic prediction
// asserts over a finished run's registry aggregates. Zero-valued fields
// disable their check, so a prediction only asserts what its model actually
// guarantees (internal/analytic derives the values; DESIGN.md §3.8 maps each
// field to its bound).
type NetworkBounds struct {
	// MaxOccupancy is the per-channel occupancy envelope: no switch
	// ingress channel's high-water mark may exceed it. Host channels are
	// exempt — host ingress "buffers" are nominally unbounded sinks with
	// no flow-control semantics. Zero disables the check.
	MaxOccupancy units.Size
	// MaxDelivered bounds total delivered bytes from above (aggregate
	// host link capacity × duration). Zero disables the check.
	MaxDelivered units.Size
	// MinDelivered is the progress floor of a run predicted deadlock-free:
	// total delivered bytes must reach it. Zero disables the check.
	MinDelivered units.Size
	// Lossless asserts the run recorded zero drops.
	Lossless bool
	// DeadlockFree asserts the run's detector (if any) stayed silent.
	// The registry cannot see detectors, so CheckNetwork takes the
	// verdict as an argument.
	DeadlockFree bool
}

// CheckNetwork validates the end-of-run aggregates against b, returning nil
// when every bound held or an *InvariantError in the same structured shape
// the runtime checks produce. at is the run's end time, delivered its total
// delivered bytes and deadlocked its detector verdict.
//
// Unlike the runtime checks, CheckNetwork records nothing into the registry:
// Summary(), Violations() and Err() are unchanged, so attaching the
// network-wide checker to a run cannot perturb outputs (golden traces,
// fault-matrix violation columns) that fold the registry's own counts.
func (r *Registry) CheckNetwork(b NetworkBounds, at units.Time, delivered units.Size, deadlocked bool) *InvariantError {
	var e InvariantError
	var drops int64
	for n := range len(r.base) - 1 {
		host := r.host(topology.NodeID(n))
		for idx := r.base[n]; idx < r.base[n+1]; idx++ {
			c := &r.counters[idx]
			drops += c.Drops
			if host || b.MaxOccupancy <= 0 || c.HighWater <= b.MaxOccupancy {
				continue
			}
			if len(e.Violations) >= maxViolations {
				e.Truncated++
				continue
			}
			v := Violation{
				Kind: ViolationNetOccupancy, At: at,
				Occupancy: c.HighWater, Limit: b.MaxOccupancy,
				Detail: "high-water above analytic envelope",
			}
			v.NodeName, v.Port, v.FromName = r.names(idx)
			e.Violations = append(e.Violations, v)
		}
	}
	if b.MaxDelivered > 0 && delivered > b.MaxDelivered {
		e.Violations = append(e.Violations, Violation{
			Kind: ViolationNetThroughput, At: at,
			Occupancy: delivered, Limit: b.MaxDelivered,
			Detail: "total delivered above analytic throughput bound",
		})
	}
	if b.MinDelivered > 0 && delivered < b.MinDelivered {
		e.Violations = append(e.Violations, Violation{
			Kind: ViolationNetProgress, At: at,
			Occupancy: delivered, Limit: b.MinDelivered,
			Detail: "total delivered below analytic progress floor",
		})
	}
	if b.Lossless && drops > 0 {
		e.Violations = append(e.Violations, Violation{
			Kind: ViolationNetLoss, At: at,
			Occupancy: units.Size(drops),
			Detail:    "drops on a run predicted lossless",
		})
	}
	if b.DeadlockFree && deadlocked {
		e.Violations = append(e.Violations, Violation{
			Kind: ViolationNetDeadlock, At: at,
			Detail: "deadlock detected on a run predicted deadlock-free",
		})
	}
	if len(e.Violations) == 0 && e.Truncated == 0 {
		return nil
	}
	return &e
}

// CheckStageTable validates channel idx's stage table, recording a
// ViolationStageTable on failure, and arms the per-message stage-range check
// with the table's stage count.
func (r *Registry) CheckStageTable(idx int, t *core.StageTable) {
	if err := ValidateStageTable(t); err != nil {
		r.violate(Violation{Kind: ViolationStageTable, Detail: err.Error()}, idx)
		return
	}
	r.maxStage[idx] = int32(t.Stages())
}
