// Package gfc is a packet-level simulation library for lossless network
// fabrics, built around Gentle Flow Control (GFC) — the deadlock-avoiding
// hop-by-hop flow control of Qian, Cheng, Zhang and Ren, "Gentle Flow
// Control: Avoiding Deadlock in Lossless Networks", SIGCOMM 2019.
//
// This package is the facade over the module's internal packages. It
// re-exports:
//
//   - the GFC parameter bounds (Theorems 4.1/5.1) of the paper, alongside
//     PFC (IEEE 802.1Qbb), InfiniBand credit-based flow control and
//     buffer-based GFC as flow-control factories;
//   - a deterministic discrete-event simulator of input-buffered lossless
//     switches;
//   - topology builders (rings, fat-trees, dumbbells), shortest-path
//     routing, cyclic-buffer-dependency analysis and a runtime deadlock
//     detector;
//   - the DCQCN congestion control and Up*/Down* routing, the CBD-free
//     related-work baseline;
//   - the §6.2.3 sweep behind Table 1.
//
// It is deliberately only as wide as its users: every name here is exercised
// by a test or a program under examples/ (TestFacadeExportsAreUsed fails on
// one that is not). Fault injection, declarative scenarios, metrics reports,
// the run governor and the fluid and analytic models are driven through
// cmd/gfcsim, which reproduces every table and figure of the paper's
// evaluation (see EXPERIMENTS.md).
//
// # Quick start
//
//	topo := gfc.Ring(3, gfc.DefaultLinkParams())
//	sim, err := gfc.NewSimulation(topo, gfc.Options{
//	        BufferSize:  1000 * gfc.KB,
//	        FlowControl: gfc.NewGFCBuffer(gfc.GFCBufferConfig{}),
//	})
//	...
//	sim.Run(100 * gfc.Millisecond)
//
// See examples/ for complete programs.
package gfc

import (
	"github.com/gfcsim/gfc/internal/cbd"
	"github.com/gfcsim/gfc/internal/core"
	"github.com/gfcsim/gfc/internal/dcqcn"
	"github.com/gfcsim/gfc/internal/deadlock"
	"github.com/gfcsim/gfc/internal/experiments"
	"github.com/gfcsim/gfc/internal/flowcontrol"
	"github.com/gfcsim/gfc/internal/netsim"
	"github.com/gfcsim/gfc/internal/routing"
	"github.com/gfcsim/gfc/internal/scenario"
	"github.com/gfcsim/gfc/internal/topology"
	"github.com/gfcsim/gfc/internal/units"
	"github.com/gfcsim/gfc/internal/workload"
)

// Size is a data amount in bytes.
type Size = units.Size

// Common constants re-exported for building configurations.
const (
	Nanosecond  = units.Nanosecond
	Microsecond = units.Microsecond
	Millisecond = units.Millisecond

	Byte = units.Byte
	KB   = units.KB

	Gbps = units.Gbps
)

// RateOf reports the average rate delivering s bytes in d.
var RateOf = units.RateOf

// Topology is a network graph of hosts, switches and links.
type Topology = topology.Topology

// Topology constructors.
var (
	// Ring builds the paper's Figure 1 deadlock ring (n switches, one
	// host each).
	Ring = topology.Ring
	// RingHosts builds an n-switch ring with h hosts per switch.
	RingHosts = topology.RingHosts
	// FatTree builds a k-ary fat-tree (Al-Fares et al.).
	FatTree = topology.FatTree
	// Dumbbell builds an n-sender incast dumbbell.
	Dumbbell = topology.Dumbbell
	// DefaultLinkParams is 10 Gb/s with 1 µs propagation delay.
	DefaultLinkParams = topology.DefaultLinkParams
)

// Hop is one forwarding step of a path.
type Hop = routing.Hop

// Routing constructors and helpers.
var (
	// NewSPF computes shortest-path routing toward every host.
	NewSPF = routing.NewSPF
	// ExplicitPath pins a route through named nodes.
	ExplicitPath = routing.ExplicitPath
	// RingClockwisePaths is the Figure 1 traffic pattern.
	RingClockwisePaths = routing.RingClockwisePaths
)

// Flow control.
type (
	// FlowControlFactory builds a controller per channel.
	FlowControlFactory = flowcontrol.Factory
	// PFCConfig holds PFC XOFF/XON thresholds.
	PFCConfig = flowcontrol.PFCConfig
	// CBFCConfig holds the credit-based flow control period.
	CBFCConfig = flowcontrol.CBFCConfig
	// GFCBufferConfig configures buffer-based GFC (§5.1).
	GFCBufferConfig = flowcontrol.GFCBufferConfig
)

// Flow-control constructors.
var (
	// NewPFC builds IEEE 802.1Qbb Priority Flow Control.
	NewPFC = flowcontrol.NewPFC
	// NewPFCDefault derives recommended PFC thresholds.
	NewPFCDefault = flowcontrol.NewPFCDefault
	// NewCBFC builds InfiniBand credit-based flow control.
	NewCBFC = flowcontrol.NewCBFC
	// NewGFCBuffer builds buffer-based Gentle Flow Control.
	NewGFCBuffer = flowcontrol.NewGFCBuffer
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

// Simulation.
type (
	// Options configures a simulation (buffer sizes, flow control,
	// switching discipline, tracing, ...).
	Options = netsim.Config
	// Flow is one transfer between hosts.
	Flow = netsim.Flow
)

// NewSimulation builds a simulation of a topology under the given options.
var NewSimulation = netsim.New

// Deadlock and CBD constructors.
var (
	// NewDeadlockDetector watches a simulation for deadlock.
	NewDeadlockDetector = deadlock.NewDetector
	// CBDFromAllPairs builds the dependency graph of all host pairs.
	CBDFromAllPairs = cbd.FromAllPairs
)

// FC names a flow-control scheme in a sweep or scenario.
type FC = scenario.FC

// AllFCs lists the paper's four schemes in presentation order.
var AllFCs = scenario.AllFCs

// The §6.2.3 sweep (Table 1): random fat-tree failure scenarios under the
// enterprise workload, one RunSweep per scheme. cmd/gfcsim -exp table1 is the
// full driver (checkpoints, budgets, backends); examples/sweep the minimal one.
type (
	// SweepConfig parameterises a sweep.
	SweepConfig = experiments.SweepConfig
	// SweepResult aggregates one scheme over one scale.
	SweepResult = experiments.SweepResult
)

// Sweep functions.
var (
	// DefaultSweep is a CI-sized sweep configuration for arity k.
	DefaultSweep = experiments.DefaultSweep
	// RunSweep sweeps one scheme; results are bit-identical for every
	// SweepConfig.Workers count.
	RunSweep = experiments.RunSweep
	// Table1Rows renders sweep results as the paper's Table 1.
	Table1Rows = experiments.Table1Rows
)

// Workload constructors.
var (
	// EnterpriseWorkload is the paper's Figure 15 flow-size mix.
	EnterpriseWorkload = workload.Enterprise
	// NewTrafficGenerator wires a generator to a simulation.
	NewTrafficGenerator = workload.NewGenerator
	// EdgeRacks groups fat-tree hosts into racks by edge switch.
	EdgeRacks = workload.EdgeRacks
)

// DCQCNReactionPoint is a per-flow DCQCN sender state machine.
type DCQCNReactionPoint = dcqcn.RP

// DCQCN constructors.
var (
	// AttachDCQCN installs DCQCN on a flow.
	AttachDCQCN = dcqcn.Attach
	// DefaultDCQCNConfig is the paper's Figure 20 parameterisation.
	DefaultDCQCNConfig = dcqcn.DefaultConfig
)

// NewUpDown orients a topology for Up*/Down* routing (§8 of the paper).
var NewUpDown = routing.NewUpDown
