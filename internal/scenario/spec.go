// Package scenario is the declarative experiment layer: one JSON-serialisable
// Spec declares a complete simulation — topology builder and parameters,
// routing policy, workload (pinned flows or the paper's inter-rack
// generator), flow-control scheme with FCParams, an optional fault scenario
// and the run/stop conditions — and one Build call compiles it into a
// ready-to-run netsim.Network.
//
// Every paper setup is declared once here (builtin.go), as a constructor that
// its figure/table driver in internal/experiments calls and that the registry
// (Register/Get/Names, consumed by cmd/gfcsim and benchmark/) exposes by
// name; user -scenario files parse with the same strict decoder as fault
// specs (unknown fields rejected).
//
// Build is deterministic: for one (Spec, seed) pair the constructed network
// replays bit-identically. The only random sources are the topology's
// FailRandom generator, the workload generator and the fault injector — each
// privately seeded from the Spec, never from global state.
package scenario

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/gfcsim/gfc/internal/faults"
	"github.com/gfcsim/gfc/internal/netsim"
	"github.com/gfcsim/gfc/internal/units"
)

// Spec is one complete scenario description. The zero value is not runnable;
// at minimum Topology, Scheme, a workload source and Run.Duration are needed
// (Validate spells out the rules).
type Spec struct {
	// Name identifies the scenario (registry key, report label).
	Name string `json:"name"`
	// Description is a one-line summary shown by listings.
	Description string `json:"description,omitempty"`
	// Seed is the scenario's base random seed; per-subsystem seeds
	// (workload, faults) default to it when unset.
	Seed int64 `json:"seed,omitempty"`

	Topology TopologySpec `json:"topology"`
	Routing  RoutingSpec  `json:"routing,omitempty"`
	Workload WorkloadSpec `json:"workload"`
	Scheme   SchemeSpec   `json:"scheme"`
	Sim      SimSpec      `json:"sim,omitempty"`
	Faults   *FaultsSpec  `json:"faults,omitempty"`
	Run      RunSpec      `json:"run"`
	// Limits declares run-governor bounds for the scenario; nil means
	// unbounded. They apply only to governed runs (Sim.RunBounded) and are
	// overlaid by any caller-side budget flags.
	Limits *LimitsSpec `json:"limits,omitempty"`
}

// TopologySpec selects a topology builder and its parameters.
type TopologySpec struct {
	// Builder is one of "ring", "fat-tree", "dumbbell", "linear",
	// "two-to-one".
	Builder string `json:"builder"`
	// K is the fat-tree arity (even, >= 2).
	K int `json:"k,omitempty"`
	// N is the switch/sender count for ring (>= 3), dumbbell and linear
	// (>= 1).
	N int `json:"n,omitempty"`
	// HostsPerSwitch applies to rings; default 1.
	HostsPerSwitch int `json:"hosts_per_switch,omitempty"`
	// CapacityBps / DelayNs override the 10 Gb/s / 1 µs link defaults.
	CapacityBps units.Rate `json:"capacity_bps,omitempty"`
	DelayNs     units.Time `json:"delay_ns,omitempty"`
	// FailLinks names links ("A-B") to fail after building, in order.
	FailLinks []string `json:"fail_links,omitempty"`
	// FailRandom fails each switch-to-switch link with probability Prob
	// using a private source seeded with Seed (the Table 1 scenario
	// generator).
	FailRandom *FailRandomSpec `json:"fail_random,omitempty"`
}

// FailRandomSpec parameterises random link failures.
type FailRandomSpec struct {
	Prob float64 `json:"prob"`
	Seed int64   `json:"seed"`
}

// RoutingSpec selects the routing policy.
type RoutingSpec struct {
	// Policy is "auto" (default: build an SPF table only when the
	// workload needs one), "spf" (all hosts) or "none".
	Policy string `json:"policy,omitempty"`
}

// WorkloadSpec declares the traffic. Exactly one source must be present:
// a Pattern, a Flows list, or a Generator (Flows may accompany a Pattern in
// neither case — they are mutually exclusive to keep flow IDs unambiguous).
type WorkloadSpec struct {
	// Pattern names a built-in flow pattern; "ring-clockwise" is the
	// Figure 1 pattern (every host sends two switches clockwise).
	Pattern string `json:"pattern,omitempty"`
	// Flows pins individual flows (CBR/unbounded or sized).
	Flows []FlowSpec `json:"flows,omitempty"`
	// Generator drives every host with the paper's random inter-rack
	// workload (§6.2.3).
	Generator *GeneratorSpec `json:"generator,omitempty"`
}

// FlowSpec is one declared flow. Give either an explicit Path of node names
// (source first; the destination host last) or a Src/Dst pair routed over
// the scenario's table with the flow's ID as ECMP key.
type FlowSpec struct {
	// ID defaults to the flow's 1-based position in the list.
	ID   int      `json:"id,omitempty"`
	Path []string `json:"path,omitempty"`
	Src  string   `json:"src,omitempty"`
	Dst  string   `json:"dst,omitempty"`
	// SizeBytes is the flow size; 0 means unbounded (runs forever).
	SizeBytes units.Size `json:"size_bytes,omitempty"`
	// StartNs delays the flow's first packet.
	StartNs units.Time `json:"start_ns,omitempty"`
}

// id is the flow ID of the spec at position i of the Flows list: its ID, or
// i + 1 when that is unset.
func (f *FlowSpec) id(i int) int {
	if f.ID != 0 {
		return f.ID
	}
	return i + 1
}

// GeneratorSpec parameterises the random inter-rack workload generator.
type GeneratorSpec struct {
	// Dist is "enterprise" (default) or "uniform".
	Dist string `json:"dist,omitempty"`
	// UniformBytes is the fixed size for Dist "uniform".
	UniformBytes units.Size `json:"uniform_bytes,omitempty"`
	// FlowsPerHost is the per-host concurrency; <= 0 means 1.
	FlowsPerHost int `json:"flows_per_host,omitempty"`
	// Seed seeds the generator's private source; 0 uses Spec.Seed.
	Seed int64 `json:"seed,omitempty"`
}

// SchemeSpec selects the flow-control scheme and its parameters.
type SchemeSpec struct {
	FC FC `json:"fc"`
	// Preset is "" (Params used verbatim), "testbed" (§6.1) or "sim"
	// (§6.2.2); non-zero Params fields overlay the preset.
	Preset string   `json:"preset,omitempty"`
	Params FCParams `json:"params,omitempty"`
}

// SimSpec overrides netsim.Config knobs; zero fields keep the preset's (or
// netsim's) defaults.
type SimSpec struct {
	BufferBytes units.Size `json:"buffer_bytes,omitempty"`
	MTUBytes    units.Size `json:"mtu_bytes,omitempty"`
	ProcDelayNs units.Time `json:"proc_delay_ns,omitempty"`
	TauNs       units.Time `json:"tau_ns,omitempty"`
	ECNBytes    units.Size `json:"ecn_bytes,omitempty"`
	// Scheduling is "" or one of "input-queued", "fifo", "voq",
	// "blocking".
	Scheduling string `json:"scheduling,omitempty"`
	TxRing     int    `json:"tx_ring,omitempty"`
	// Backend selects the simulation backend: "" or "packet" replays every
	// packet through netsim; "fluid" integrates the network-of-queues rate
	// model (a few times faster, subject to FluidBackend.Supports).
	Backend string `json:"backend,omitempty"`
	// FluidStepNs overrides the fluid backend's integration step (default
	// 500 ns). Coarser steps trade occupancy resolution — roughly one
	// step's worth of line-rate bytes — for proportionally less work;
	// fluid sweeps run at 2 µs. Ignored by the packet backend.
	FluidStepNs units.Time `json:"fluid_step_ns,omitempty"`
}

// FaultsSpec references a fault scenario: a built-in preset by name or an
// inline faults.Spec, injected with a private source seeded by Seed.
type FaultsSpec struct {
	Preset string       `json:"preset,omitempty"`
	Inline *faults.Spec `json:"inline,omitempty"`
	// Seed seeds the injector; 0 uses Spec.Seed.
	Seed int64 `json:"seed,omitempty"`
}

// LimitsSpec declares the scenario's run-governor budget: how far a run may
// go before it is declared runaway. A fuzzed or mis-parameterised spec then
// terminates with a structured verdict and a flight-recorder snapshot
// instead of wedging its sweep.
type LimitsSpec struct {
	// MaxEvents caps fired events per governed run; 0 is unlimited.
	MaxEvents uint64 `json:"max_events,omitempty"`
	// MaxWallMs caps host wall-clock milliseconds; 0 is unlimited.
	MaxWallMs int64 `json:"max_wall_ms,omitempty"`
	// StallEvents arms netsim's livelock watchdog; 0 disables it.
	StallEvents uint64 `json:"stall_events,omitempty"`
	// CheckEvery is the governor polling interval in events; 0 uses the
	// netsim default.
	CheckEvery uint64 `json:"check_every,omitempty"`
	// MaxHeapBytes arms netsim's OOM guard: the run stops with a
	// structured verdict if the Go heap exceeds this size, instead of
	// letting one oversized scenario OOM-kill the whole sweep process.
	// 0 disables the guard.
	MaxHeapBytes int64 `json:"max_heap_bytes,omitempty"`
}

// Budget converts the declared limits to a netsim budget.
func (l *LimitsSpec) Budget() netsim.Budget {
	if l == nil {
		return netsim.Budget{}
	}
	return netsim.Budget{
		MaxEvents:   l.MaxEvents,
		MaxWall:     time.Duration(l.MaxWallMs) * time.Millisecond,
		StallEvents: l.StallEvents,
		CheckEvery:  l.CheckEvery,
		MaxHeap:     uint64(max(l.MaxHeapBytes, 0)),
	}
}

func (l *LimitsSpec) validate() error {
	if l.MaxWallMs < 0 {
		return fmt.Errorf("scenario: limits: negative max_wall_ms %d", l.MaxWallMs)
	}
	if l.MaxHeapBytes < 0 {
		return fmt.Errorf("scenario: limits: negative max_heap_bytes %d", l.MaxHeapBytes)
	}
	return nil
}

// RunSpec declares duration and stop conditions.
type RunSpec struct {
	DurationNs units.Time `json:"duration_ns"`
	// DetectDeadlock installs the runtime deadlock detector.
	DetectDeadlock bool `json:"detect_deadlock,omitempty"`
	// Detector selects which detector DetectDeadlock/StopOnDeadlock
	// install: "" or "global" is the buffer-snapshot detector, "dcfit" the
	// in-data-plane initial-trigger detector, "both" installs both (the
	// global verdict drives stop conditions; DCFIT reports alongside).
	Detector string `json:"detector,omitempty"`
	// StopOnDeadlock ends the run at first detection (implies
	// DetectDeadlock).
	StopOnDeadlock bool `json:"stop_on_deadlock,omitempty"`
	// Analytic attaches the network-wide analytic checker: Build ensures
	// a metrics registry is bound (attaching one if no override supplies
	// it) and Run/RunBounded fill Result.Analytic with the prediction and
	// the end-of-run verdict (internal/analytic, DESIGN.md §3.8). The
	// check is post-run only — it never perturbs the event sequence.
	Analytic bool `json:"analytic,omitempty"`
}

// Parse decodes a Spec from JSON, rejecting unknown fields, and validates it.
func Parse(data []byte) (*Spec, error) {
	s, err := decode(data)
	if err == nil {
		err = s.Validate()
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}

// decode is Parse's strict decoder without the validation.
func decode(data []byte) (*Spec, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: parsing spec: %w", err)
	}
	return &s, nil
}

// Load reads a Spec from a JSON file.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("scenario: %s: %w", path, err)
	}
	if s.Name == "" {
		s.Name = path
	}
	return s, nil
}

// Validate checks the whole spec: Parse and every backend's build call it,
// so a spec one rejects the other rejects too.
func (s *Spec) Validate() error {
	if err := s.Topology.validate(); err != nil {
		return err
	}
	if err := s.Routing.validate(); err != nil {
		return err
	}
	if err := s.Workload.validate(); err != nil {
		return err
	}
	if s.Workload.Pattern == "ring-clockwise" && s.Topology.Builder != "ring" {
		return fmt.Errorf("scenario: workload: pattern ring-clockwise needs the ring builder, not %q", s.Topology.Builder)
	}
	if err := s.Scheme.validate(); err != nil {
		return err
	}
	if err := s.Sim.validate(); err != nil {
		return err
	}
	if s.Faults != nil {
		if err := s.Faults.validate(); err != nil {
			return err
		}
	}
	if s.Limits != nil {
		if err := s.Limits.validate(); err != nil {
			return err
		}
	}
	return s.Run.validate()
}

func (t *TopologySpec) validate() error {
	switch t.Builder {
	case "ring":
		if n := t.n(); n < 3 {
			return fmt.Errorf("scenario: topology: ring needs n >= 3, got %d", n)
		}
		if t.HostsPerSwitch < 0 {
			return fmt.Errorf("scenario: topology: negative hosts_per_switch %d", t.HostsPerSwitch)
		}
	case "fat-tree":
		if t.K < 2 || t.K%2 != 0 {
			return fmt.Errorf("scenario: topology: fat-tree arity must be even and >= 2, got %d", t.K)
		}
	case "dumbbell", "linear":
		if t.N < 1 {
			return fmt.Errorf("scenario: topology: %s needs n >= 1, got %d", t.Builder, t.N)
		}
	case "two-to-one":
		// No parameters.
	case "":
		return fmt.Errorf("scenario: topology: builder is required")
	default:
		return fmt.Errorf("scenario: topology: unknown builder %q", t.Builder)
	}
	if t.CapacityBps < 0 || t.DelayNs < 0 {
		return fmt.Errorf("scenario: topology: negative capacity or delay")
	}
	if fr := t.FailRandom; fr != nil {
		if fr.Prob < 0 || fr.Prob > 1 {
			return fmt.Errorf("scenario: topology: fail_random prob %v outside [0,1]", fr.Prob)
		}
	}
	return nil
}

// n is the ring switch count with its default applied.
func (t *TopologySpec) n() int {
	if t.Builder == "ring" && t.N == 0 {
		return 3
	}
	return t.N
}

// hosts is the ring's hosts per switch with its default applied.
func (t *TopologySpec) hosts() int {
	return max(t.HostsPerSwitch, 1)
}

// HostCount reports how many hosts the topology will have, without building
// it — what catalogue listings show so a user can judge a scenario's scale
// before running it. Unknown builders report 0 (validation rejects them
// anyway).
func (t *TopologySpec) HostCount() int {
	switch t.Builder {
	case "ring":
		return t.n() * t.hosts()
	case "fat-tree":
		return t.K * t.K * t.K / 4
	case "dumbbell":
		return t.N + 1 // n senders plus the one receiver
	case "linear":
		return t.N // one host per switch
	case "two-to-one":
		return 3
	default:
		return 0
	}
}

func (r *RoutingSpec) validate() error {
	switch r.Policy {
	case "", "auto", "spf", "none":
	default:
		return fmt.Errorf("scenario: routing: unknown policy %q", r.Policy)
	}
	return nil
}

func (w *WorkloadSpec) validate() error {
	sources := 0
	if w.Pattern != "" {
		sources++
	}
	if len(w.Flows) > 0 {
		sources++
	}
	if w.Generator != nil {
		sources++
	}
	if sources == 0 {
		return fmt.Errorf("scenario: workload: needs a pattern, flows or a generator")
	}
	if sources > 1 {
		return fmt.Errorf("scenario: workload: pattern, flows and generator are mutually exclusive")
	}
	if w.Pattern != "" && w.Pattern != "ring-clockwise" {
		return fmt.Errorf("scenario: workload: unknown pattern %q", w.Pattern)
	}
	// Flow-ID-keyed state (BFC's queue claims) needs the IDs distinct.
	ids := make(map[int]int, len(w.Flows))
	for i, f := range w.Flows {
		hasPath := len(f.Path) > 0
		hasPair := f.Src != "" || f.Dst != ""
		if hasPath && hasPair {
			return fmt.Errorf("scenario: workload: flows[%d]: give a path or a src/dst pair, not both", i)
		}
		if hasPath && len(f.Path) < 2 {
			return fmt.Errorf("scenario: workload: flows[%d]: path needs at least two nodes", i)
		}
		if !hasPath && (f.Src == "" || f.Dst == "") {
			return fmt.Errorf("scenario: workload: flows[%d]: needs a path or both src and dst", i)
		}
		if f.SizeBytes < 0 || f.StartNs < 0 {
			return fmt.Errorf("scenario: workload: flows[%d]: negative size or start", i)
		}
		if f.ID < 0 {
			return fmt.Errorf("scenario: workload: flows[%d]: negative id", i)
		}
		id := f.id(i)
		if j, dup := ids[id]; dup {
			return fmt.Errorf("scenario: workload: flows[%d] and flows[%d] share id %d", j, i, id)
		}
		ids[id] = i
	}
	if g := w.Generator; g != nil {
		switch g.Dist {
		case "", "enterprise":
		case "uniform":
			if g.UniformBytes <= 0 {
				return fmt.Errorf("scenario: workload: generator dist uniform needs uniform_bytes > 0, got %d", g.UniformBytes)
			}
		default:
			return fmt.Errorf("scenario: workload: unknown generator dist %q", g.Dist)
		}
	}
	return nil
}

func (sc *SchemeSpec) validate() error {
	if sc.FC == "" {
		return fmt.Errorf("scenario: scheme: fc is required")
	}
	if !sc.FC.Known() {
		return fmt.Errorf("scenario: scheme: unknown fc %q", sc.FC)
	}
	switch sc.Preset {
	case "", "testbed", "sim":
	default:
		return fmt.Errorf("scenario: scheme: unknown preset %q (want testbed or sim)", sc.Preset)
	}
	return nil
}

func (m *SimSpec) validate() error {
	if _, ok := schedulings[m.Scheduling]; !ok {
		return fmt.Errorf("scenario: sim: unknown scheduling %q", m.Scheduling)
	}
	if m.BufferBytes < 0 || m.MTUBytes < 0 || m.ECNBytes < 0 ||
		m.ProcDelayNs < 0 || m.TauNs < 0 ||
		m.FluidStepNs < 0 {
		return fmt.Errorf("scenario: sim: negative size or time field")
	}
	switch m.Backend {
	case "", "packet", "fluid":
	default:
		return fmt.Errorf("scenario: sim: unknown backend %q (want packet or fluid)", m.Backend)
	}
	return nil
}

func (f *FaultsSpec) validate() error {
	if (f.Preset == "") == (f.Inline == nil) {
		return fmt.Errorf("scenario: faults: give exactly one of preset or inline")
	}
	if f.Inline != nil {
		return f.Inline.Validate()
	}
	if _, err := faults.Preset(f.Preset); err != nil {
		return err
	}
	return nil
}

func (r *RunSpec) validate() error {
	if r.DurationNs <= 0 {
		return fmt.Errorf("scenario: run: duration_ns must be positive, got %d", r.DurationNs)
	}
	switch r.Detector {
	case "", "global", "dcfit", "both":
	default:
		return fmt.Errorf("scenario: run: unknown detector %q (want global, dcfit or both)", r.Detector)
	}
	return nil
}

// schedulings maps SimSpec.Scheduling's names to the switch disciplines.
var schedulings = map[string]netsim.Scheduling{
	"":             netsim.SchedInputQueued,
	"input-queued": netsim.SchedInputQueued,
	"fifo":         netsim.SchedFIFO,
	"voq":          netsim.SchedVOQ,
	"blocking":     netsim.SchedBlocking,
}
