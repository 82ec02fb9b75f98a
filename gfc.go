// Package gfc is a packet-level simulation library for lossless network
// fabrics, built around Gentle Flow Control (GFC) — the deadlock-avoiding
// hop-by-hop flow control of Qian, Cheng, Zhang and Ren, "Gentle Flow
// Control: Avoiding Deadlock in Lossless Networks", SIGCOMM 2019.
//
// This package is the facade over the module's internal packages. A run is
// built one way: a declarative Spec — one of the paper's setups from its
// constructor or by registered name, adjusted field by field — compiled by
// Build into a network that Run drives to its horizon. cmd/gfcsim runs the
// same declarations for every table and figure of the paper's evaluation
// (see EXPERIMENTS.md). Beside that, the facade re-exports:
//
//   - the GFC parameter bounds (Theorems 4.1/5.1) of the paper;
//   - topology constructors, shortest-path routing, cyclic-buffer-dependency
//     analysis and Up*/Down* routing, the CBD-free related-work baseline;
//   - the §6.2.3 sweep behind Table 1.
//
// It is deliberately only as wide as its users: every name here is exercised
// by a test or an Example (TestFacadeExportsAreUsed fails on one that is
// not). Fault injection, metrics reports, the run governor and the fluid and
// analytic models are driven through cmd/gfcsim.
//
// # Quick start
//
// ExampleBuild runs the paper's deadlock-formation ring under PFC and under
// buffer-based GFC:
//
//	spec := gfc.TestbedRing(gfc.PFC, 2)
//	spec.Run.DurationNs = 20 * gfc.Millisecond
//	sim, err := gfc.Build(spec, nil)
//	...
//	res := sim.Run()
package gfc

import (
	"github.com/gfcsim/gfc/internal/cbd"
	"github.com/gfcsim/gfc/internal/core"
	"github.com/gfcsim/gfc/internal/experiments"
	"github.com/gfcsim/gfc/internal/routing"
	"github.com/gfcsim/gfc/internal/scenario"
	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
	"github.com/gfcsim/gfc/internal/workload"
)

// Common constants re-exported for building configurations.
const (
	Microsecond = units.Microsecond
	Millisecond = units.Millisecond

	Byte = units.Byte
	KB   = units.KB

	Gbps = units.Gbps
)

// Spec declares one run: topology, routing, workload, flow-control scheme,
// simulator parameters and horizon. It is also the JSON format of
// `gfcsim -scenario file.json`.
type Spec = scenario.Spec

// FC names a flow-control scheme in a Spec or a sweep.
type FC = scenario.FC

// The schemes a quick start needs by name; AllFCs lists the paper's four.
const (
	PFC       = scenario.PFC
	GFCBuffer = scenario.GFCBuf
)

// Building and running a Spec.
var (
	// Build compiles a Spec into a runnable simulation; Run drives it to
	// the declared horizon. The *Overrides argument is optional (nil).
	Build = scenario.Build
	// Scenario looks up a registered Spec by name (`gfcsim -list`).
	Scenario = scenario.Get
	// AllFCs lists the paper's four schemes in presentation order.
	AllFCs = scenario.AllFCs
)

// The paper's setups, each declared once (cmd/gfcsim runs the same
// declarations); the remaining registered ones are reachable by name through
// Scenario.
var (
	// TestbedRing is the §6.1 ring of Figures 9/10: one host per switch is
	// the critically loaded steady state, two the deadlock-formation ring.
	TestbedRing = scenario.Ring
	// CaseStudy is the Figures 11–14 fat-tree with a four-channel CBD,
	// optionally with the squeeze flow and the Figure 14 victim.
	CaseStudy = scenario.CaseStudy
	// Incast is the Figure 20 dumbbell: eight senders into one receiver.
	Incast = scenario.Incast
	// Overhead is a healthy k-ary fat-tree under the enterprise workload
	// (Figure 19).
	Overhead = scenario.Overhead
)

// ContinuousMapping is the conceptual linear mapping function (package core
// holds the paper's GFC parameter mathematics).
type ContinuousMapping = core.ContinuousMapping

// Parameter helpers.
var (
	// Tau bounds the feedback latency per equation (6).
	Tau = core.Tau
	// BufferBasedB1Bound is the §5.4 first-stage bound B_m − 2Cτ.
	BufferBasedB1Bound = core.BufferBasedB1Bound
	// NewSafeStageTable constructs a stage table enforcing the bound.
	NewSafeStageTable = core.NewSafeStageTable
)

// Topology is a network graph of hosts, switches and links.
type Topology = topology.Topology

// Topology, routing and static analysis.
var (
	// Ring builds an n-switch ring with one host per switch.
	Ring = topology.Ring
	// FatTree builds a k-ary fat-tree (Al-Fares et al.).
	FatTree = topology.FatTree
	// DefaultLinkParams is 10 Gb/s with 1 µs propagation delay.
	DefaultLinkParams = topology.DefaultLinkParams
	// NewSPF computes shortest-path routing toward every host.
	NewSPF = routing.NewSPF
	// EdgeRacks groups fat-tree hosts into racks by edge switch.
	EdgeRacks = workload.EdgeRacks
	// CBDFromAllPairs builds the dependency graph of all host pairs.
	CBDFromAllPairs = cbd.FromAllPairs
	// NewUpDown orients a topology for Up*/Down* routing (§8 of the paper).
	NewUpDown = routing.NewUpDown
)

// The §6.2.3 sweep (Table 1): random fat-tree failure scenarios under the
// enterprise workload, one RunSweep per scheme. `gfcsim -exp table1` runs
// every scheme on each network, with checkpoints, budgets and either backend.
var (
	// DefaultSweep is a CI-sized sweep configuration for arity k.
	DefaultSweep = experiments.DefaultSweep
	// RunSweep sweeps one scheme; results are bit-identical for every
	// SweepConfig.Workers count.
	RunSweep = experiments.RunSweep
)
