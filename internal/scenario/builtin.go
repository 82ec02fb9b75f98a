package scenario

import "github.com/gfcsim/gfc/internal/units"

// This file declares every paper setup once. The constructors below are what
// both the registry (init, at the bottom) and the -exp drivers of
// internal/experiments call — each with its own scheme, scale and horizon —
// so `gfcsim -scenario X` and the `-exp figN` it is described as simulate the
// same network at the same parameters by construction. The horizons are the
// CLI defaults; callers (and -duration) override them before Build.

// Ring returns the §6.1 testbed ring of Figures 9/10: three switches, every
// host sending two switches clockwise, testbed parameters (1 MB buffers,
// τ = 90 µs). One host per switch is the paper's critically loaded topology,
// where GFC settles at its steady state within 60 ms; two add the sibling
// injectors that squeeze transit traffic until the cyclic buffers fill — the
// deadlock-formation regime, which PFC/CBFC can take up to 200 ms to wedge.
func Ring(fc FC, hostsPerSwitch int) Spec {
	s := Spec{
		Name:     "ring-steady-" + schemeSlug(fc),
		Topology: TopologySpec{Builder: "ring", N: 3},
		Workload: WorkloadSpec{Pattern: "ring-clockwise"},
		Scheme:   SchemeSpec{FC: fc, Preset: "testbed"},
		Run:      RunSpec{DurationNs: 60 * units.Millisecond, DetectDeadlock: true},
	}
	if hostsPerSwitch > 1 {
		s.Name = "ring-formation-" + schemeSlug(fc)
		s.Topology.HostsPerSwitch = hostsPerSwitch
		s.Run.DurationNs = 200 * units.Millisecond
	}
	return s
}

// RingFaulted returns Ring as every run that injects faults into its feedback
// path declares it: the fault matrix's cells, `-exp fig9 -faults` and the
// registry's ring-faulted-* entries. The one difference is buffer-based GFC on
// the steady ring, which re-advertises its stage every τ (FCParams.Refresh):
// stage feedback is edge-triggered, so one lost message would otherwise leave
// the sender on a stale rate for good, and τ bounds the staleness at roughly
// one reaction budget. Clean runs keep Refresh 0 — the paper's §5.1 feedback,
// the golden fig9 traces and the Figure 19 overhead — and so does the
// formation ring, whose panel has only ever been run edge-triggered.
func RingFaulted(fc FC, hostsPerSwitch int) Spec {
	s := Ring(fc, hostsPerSwitch)
	if fc == GFCBuf && hostsPerSwitch <= 1 {
		testbed, _ := TestbedParams()
		s.Scheme.Params.Refresh = testbed.Tau
	}
	return s
}

// CaseStudy returns the Figure 11–14 case study: a k=4 fat-tree whose link
// failures force shortest paths into the 4-channel cyclic buffer dependency
// C1→A3→C2→A7→C1, exercised by the paper's four flows F1: H0→H8, F2: H4→H12,
// F3: H9→H1, F4: H13→H5 as explicit paths.
//
// The paper marks three failed links in its Figure 11; the exact count
// needed depends on the (unpublished) wiring of their drawing. On the
// canonical fat-tree wiring used here, four failures produce the identical
// CBD: C1–A5 and E5–A6 force F3's up-down-up detour, A1–C2 and E1–A2 force
// F1's.
//
// cross adds the deadlock trigger (flow 50): a fifth flow entering the CBD
// switch A3 from the pod's other edge (E4) and sharing the cyclic channel
// A3→C2. It gives the A3→C2 egress a third ingress claimant, squeezing F1's
// transit service below its arrival rate; the ingress A3←C1 then fills,
// pauses C1→A3, and the pause cascades around the cycle — the paper's
// deadlock-formation mechanism ("deadlock pressures congestion back", §6.2).
//
// victim adds the Figure 14 victim (flow 99, last): H12→H4 retraces F2's path
// in reverse, sharing switches with the CBD flows while using only the
// reverse directions of the cyclic channels.
func CaseStudy(fc FC, cross, victim bool) Spec {
	flows := []FlowSpec{
		{ID: 1, Path: []string{"H0", "E1", "A1", "C1", "A3", "C2", "A5", "E5", "H8"}},
		{ID: 2, Path: []string{"H4", "E3", "A3", "C2", "A7", "E7", "H12"}},
		{ID: 3, Path: []string{"H9", "E5", "A5", "C2", "A7", "C1", "A1", "E1", "H1"}},
		{ID: 4, Path: []string{"H13", "E7", "A7", "C1", "A3", "E3", "H5"}},
	}
	if cross {
		flows = append(flows, FlowSpec{ID: 50, Path: []string{"H6", "E4", "A3", "C2", "A7", "E8", "H14"}})
	}
	if victim {
		flows = append(flows, FlowSpec{ID: 99, Path: []string{"H12", "E7", "A7", "C2", "A3", "E3", "H4"}})
	}
	return Spec{
		Name: "casestudy-" + schemeSlug(fc),
		Topology: TopologySpec{
			Builder: "fat-tree", K: 4,
			FailLinks: []string{"C1-A5", "A1-C2", "E1-A2", "E5-A6"},
		},
		Workload: WorkloadSpec{Flows: flows},
		Scheme:   SchemeSpec{FC: fc, Preset: "sim"},
		Run:      RunSpec{DurationNs: 60 * units.Millisecond, DetectDeadlock: true},
	}
}

// Evolution returns the Figure 18 scenario: a CBD-prone random k=4 failure
// scenario (topology seed 106) and the enterprise workload seed (8061) under
// which PFC deadlocks at ≈27 ms while GFC keeps the network moving.
func Evolution(fc FC) Spec {
	return Spec{
		Name:     "evolution-" + schemeSlug(fc),
		Seed:     8061, // workload seed; topology seed pinned in fail_random
		Topology: TopologySpec{Builder: "fat-tree", K: 4, FailRandom: &FailRandomSpec{Prob: 0.05, Seed: 106}},
		Routing:  RoutingSpec{Policy: "spf"},
		Workload: WorkloadSpec{Generator: &GeneratorSpec{Dist: "enterprise"}},
		Scheme:   SchemeSpec{FC: fc, Preset: "sim"},
		Run:      RunSpec{DurationNs: 40 * units.Millisecond, DetectDeadlock: true},
	}
}

// Overhead returns the Figure 19 feedback-overhead scenario: a healthy k-ary
// fat-tree under the enterprise workload (the paper runs k=16; the CLI and
// the registry run k=8 to stay inside CI budgets).
func Overhead(fc FC, k int, seed int64) Spec {
	return Spec{
		Name:     "overhead-" + schemeSlug(fc),
		Seed:     seed,
		Topology: TopologySpec{Builder: "fat-tree", K: k},
		Routing:  RoutingSpec{Policy: "spf"},
		Workload: WorkloadSpec{Generator: &GeneratorSpec{Dist: "enterprise"}},
		Scheme:   SchemeSpec{FC: fc, Preset: "sim"},
		Run:      RunSpec{DurationNs: 10 * units.Millisecond},
	}
}

// Incast returns the Figure 20 fabric: eight senders into one receiver over a
// dumbbell with a 40 KB ECN threshold. "All settings of buffer-based GFC are
// consistent with aforementioned simulations" (§7): the sim preset's 300 KB
// buffers, so the incast onset crosses B1 before an end-to-end congestion
// control loop reacts.
func Incast(fc FC) Spec {
	var flows []FlowSpec
	for _, src := range []string{"H1", "H2", "H3", "H4", "H5", "H6", "H7", "H8"} {
		flows = append(flows, FlowSpec{ID: len(flows) + 1, Src: src, Dst: "H9"})
	}
	return Spec{
		Name:     "incast-" + schemeSlug(fc),
		Topology: TopologySpec{Builder: "dumbbell", N: 8},
		Routing:  RoutingSpec{Policy: "spf"},
		Workload: WorkloadSpec{Flows: flows},
		Scheme:   SchemeSpec{FC: fc, Preset: "sim"},
		Sim:      SimSpec{ECNBytes: 40 * units.KB},
		Run:      RunSpec{DurationNs: 20 * units.Millisecond},
	}
}

// SweepCell returns one Table 1 repeat (§6.2.3): the enterprise generator at
// flowsPerHost concurrent flows per host, seeded by seed, on a k-ary fat-tree
// under the sim preset. The failure scenario is the caller's to add: a sweep
// repeat names the failed links of the network it generated in fail_links
// (and hands Build that network as a cache, reused across repeats); the
// registry entry declares its failures as fail_random.
func SweepCell(fc FC, k, flowsPerHost int, seed int64) Spec {
	return Spec{
		Name:     "sweep-cell-" + schemeSlug(fc),
		Seed:     seed,
		Topology: TopologySpec{Builder: "fat-tree", K: k},
		Routing:  RoutingSpec{Policy: "spf"},
		Workload: WorkloadSpec{Generator: &GeneratorSpec{Dist: "enterprise", FlowsPerHost: flowsPerHost}},
		Scheme:   SchemeSpec{FC: fc, Preset: "sim"},
		Run:      RunSpec{DurationNs: 25 * units.Millisecond, DetectDeadlock: true},
	}
}

// clos128 returns the headline Clos-scale scenario: a k=8 fat-tree
// (128 hosts, 80 switches) under the paper's random inter-rack enterprise
// workload with §6.2.2 parameters — the scale the bespoke drivers could
// never express. CI runs all four schemes of it as a smoke test.
func clos128(fc FC) Spec {
	return Spec{
		Name:        "clos128-" + schemeSlug(fc),
		Description: "k=8 fat-tree (128 hosts), enterprise inter-rack workload, " + string(fc),
		Seed:        1,
		Topology:    TopologySpec{Builder: "fat-tree", K: 8},
		Routing:     RoutingSpec{Policy: "spf"},
		Workload:    WorkloadSpec{Generator: &GeneratorSpec{Dist: "enterprise"}},
		Scheme:      SchemeSpec{FC: fc, Preset: "sim"},
		Run:         RunSpec{DurationNs: 2 * units.Millisecond, DetectDeadlock: true},
	}
}

// clos1024 returns the frontier-scale scenario: a k=16 fat-tree (1024 hosts,
// 320 switches, 3072 links) under the same enterprise workload as clos128.
// At this scale a runaway run is expensive, so the spec declares its own
// governor Limits: the event cap is ~4× a healthy full-duration run
// (measured ~3.5M events over the 1 ms horizon on every scheme), the stall
// window is far past any legitimate quiet period, and the wall cap keeps a
// wedged CI job bounded. Only governed runs (RunBounded / gfcsim -budget
// paths) enforce them.
func clos1024(fc FC) Spec {
	return Spec{
		Name:        "clos1024-" + schemeSlug(fc),
		Description: "k=16 fat-tree (1024 hosts), enterprise inter-rack workload, " + string(fc),
		Seed:        1,
		Topology:    TopologySpec{Builder: "fat-tree", K: 16},
		Routing:     RoutingSpec{Policy: "spf"},
		Workload:    WorkloadSpec{Generator: &GeneratorSpec{Dist: "enterprise"}},
		Scheme:      SchemeSpec{FC: fc, Preset: "sim"},
		Run:         RunSpec{DurationNs: units.Millisecond, DetectDeadlock: true},
		Limits: &LimitsSpec{
			MaxEvents:   15_000_000,
			MaxWallMs:   120_000,
			StallEvents: 2_000_000,
		},
	}
}

// clos3456 returns the ROADMAP's scale-frontier scenario: a k=24 fat-tree
// (3456 hosts, 720 switches) under the enterprise workload. A full run at
// this scale is an hours-class job, so the declared Limits matter more than
// at k=16: the event cap is ~4× a healthy 1 ms run scaled up from the
// measured clos1024 event rate (~3.5M events/ms at k=16, ~3.4× the fabric
// here), the wall cap bounds a wedged cell at five minutes per governed
// run, and the heap guard stops a leaking run well before the OOM killer
// would take the whole sweep process with it.
func clos3456(fc FC) Spec {
	return Spec{
		Name:        "clos3456-" + schemeSlug(fc),
		Description: "k=24 fat-tree (3456 hosts), enterprise inter-rack workload, " + string(fc),
		Seed:        1,
		Topology:    TopologySpec{Builder: "fat-tree", K: 24},
		Routing:     RoutingSpec{Policy: "spf"},
		Workload:    WorkloadSpec{Generator: &GeneratorSpec{Dist: "enterprise"}},
		Scheme:      SchemeSpec{FC: fc, Preset: "sim"},
		Run:         RunSpec{DurationNs: units.Millisecond, DetectDeadlock: true},
		Limits: &LimitsSpec{
			MaxEvents:    50_000_000,
			MaxWallMs:    300_000,
			StallEvents:  5_000_000,
			MaxHeapBytes: 8 << 30,
		},
	}
}

// twoToOne returns Figure 5's congestion topology at the §6.2.2 simulation
// parameters: two senders share one receiver link through a single switch. It
// is the smallest scenario with genuine flow-control dynamics, which makes it
// the backend-conformance workhorse: acyclic, declared flows, one scheme knob.
// Fig5 is the same network at the figure's own parameters.
func twoToOne(fc FC) Spec {
	return Spec{
		Name:        "twotoone-" + schemeSlug(fc),
		Description: "two-to-one congestion (fig5's topology, sim params): two senders share one receiver link, " + string(fc),
		Topology:    TopologySpec{Builder: "two-to-one"},
		Routing:     RoutingSpec{Policy: "spf"},
		Workload: WorkloadSpec{Flows: []FlowSpec{
			{ID: 1, Src: "H1", Dst: "H3"},
			{ID: 2, Src: "H2", Dst: "H3"},
		}},
		Scheme: SchemeSpec{FC: fc, Preset: "sim"},
		Run:    RunSpec{DurationNs: 20 * units.Millisecond, DetectDeadlock: true},
	}
}

// Fig5 returns the §4.1 illustration of Figure 5: the two-to-one
// microbenchmark with C = 10 Gb/s, τ = 25 µs and a 120 KB buffer (B ≥ B_m, a
// little slack above the mapping). The figure has two curves: PFC with
// XOFF/XON = 80/77 KB and — for any other fc — the idealised conceptual
// design with continuous feedback, B0 = 50 KB and B_m = 100 KB.
func Fig5(fc FC) Spec {
	scheme := SchemeSpec{FC: GFCConceptual, Params: FCParams{B0: 50 * units.KB, Bm: 100 * units.KB}}
	if fc == PFC {
		scheme = SchemeSpec{FC: PFC, Params: FCParams{XOFF: 80 * units.KB, XON: 77 * units.KB}}
	}
	s := twoToOne(scheme.FC)
	s.Name = "fig5-" + schemeSlug(scheme.FC)
	s.Scheme = scheme
	s.Sim = SimSpec{
		BufferBytes: 120 * units.KB,
		TauNs:       25 * units.Microsecond,
		// Make the actual feedback latency match the illustration's
		// τ = 25 µs (message wire time + 1 µs propagation + ProcDelay).
		ProcDelayNs: 23950 * units.Nanosecond,
	}
	s.Run = RunSpec{DurationNs: 20 * units.Millisecond}
	return s
}

// schemeSlug is the lower-case registry suffix for a scheme.
func schemeSlug(fc FC) string {
	switch fc {
	case PFC:
		return "pfc"
	case CBFC:
		return "cbfc"
	case GFCBuf:
		return "gfcbuf"
	case GFCTime:
		return "gfctime"
	case GFCConceptual:
		return "gfcconceptual"
	case BFC:
		return "bfc"
	default:
		return string(fc)
	}
}

func init() {
	// The paper's figures, described. The ring and case-study variants that
	// are not themselves a figure panel (faulted, DCFIT, BFC) overlay the
	// figure's declaration here.
	register := func(s Spec, description string) {
		s.Description = description
		Register(s)
	}
	register(Ring(GFCBuf, 1),
		"fig9 steady state: critically loaded 3-switch ring, testbed params, buffer-based GFC")
	register(Ring(PFC, 2),
		"fig9 deadlock formation: 2 hosts/switch ring squeezes transit until PFC wedges")
	faulted := func(fc FC, wedged string) {
		s := RingFaulted(fc, 1)
		s.Name = "ring-faulted-resume-loss-" + schemeSlug(fc)
		s.Seed = 1
		s.Faults = &FaultsSpec{Preset: "resume-loss"}
		register(s, "canonical faulted ring: resume-loss preset wedges "+wedged+" shut (seed 1)")
	}
	faulted(PFC, "PFC")
	faulted(BFC, "a BFC queue")
	bfc := Ring(BFC, 2)
	bfc.Run.Detector = "both"
	register(bfc,
		"fig9 formation ring under BFC: per-queue pauses keep victim flows moving, the ring that wedges PFC stays live")
	dcfit := Ring(PFC, 2)
	dcfit.Name += "-dcfit"
	dcfit.Run.Detector = "both"
	register(dcfit,
		"fig9 deadlock formation under PFC with in-data-plane DCFIT detection alongside the global detector")
	register(Fig5(PFC),
		"fig5 illustration: two-to-one congestion at C=10G, τ=25µs; PFC saws between XON/XOFF = 77/80KB")
	register(Fig5(GFCConceptual),
		"fig5 illustration under conceptual GFC (B0=50KB, Bm=100KB): the queue settles at B_s=75KB")
	register(CaseStudy(PFC, true, false),
		"fig12 case study: k=4 fat-tree with failed links, CBD flows + cross squeeze, PFC deadlocks")
	register(CaseStudy(GFCBuf, true, false),
		"fig12 case study under buffer-based GFC: the CBD fills but keeps trickling")
	register(Evolution(PFC),
		"fig18 throughput evolution: CBD-prone random k=4 scenario where PFC collapses mid-run")
	register(Overhead(GFCBuf, 8, 1),
		"fig19 feedback overhead: healthy k=8 fat-tree, enterprise workload, buffer-based GFC")
	register(Incast(GFCBuf),
		"fig20 incast fabric: 8 senders into one receiver over a dumbbell, ECN 40KB, buffer-based GFC")
	// The registered sweep cell declares its failure scenario as fail_random
	// (a sweep repeat names the links it failed) and stops at the first
	// detection — a -scenario run wants the verdict, a sweep repeat the
	// full-horizon aggregates.
	cell := SweepCell(PFC, 4, 4, 35)
	cell.Topology.FailRandom = &FailRandomSpec{Prob: 0.05, Seed: 35}
	cell.Run.StopOnDeadlock = true
	register(cell,
		"one table1 sweep cell: CBD-prone random k=4 failure scenario (seed 35) under PFC")
	bfcCell := SweepCell(BFC, 4, 4, 35)
	bfcCell.Topology.FailRandom = cell.Topology.FailRandom
	bfcCell.Run.StopOnDeadlock = true
	register(bfcCell,
		"the same sweep cell under BFC: per-queue pauses on a CBD-prone fabric stay lossless")
	// All five schemes of the fig5 microbenchmark: the four fluid-capable
	// ones anchor the backend-conformance suite, CBFC pins its skip reason.
	for _, fc := range AllFCs() {
		Register(twoToOne(fc))
	}
	Register(twoToOne(GFCConceptual))
	for _, fc := range AllFCs() {
		Register(clos128(fc))
	}
	// BFC rides the Clos tier too (the CI race smoke target); it is not in
	// AllFCs because the paper's own comparisons stay four-scheme.
	Register(clos128(BFC))
	// The k=16 tier registers only the paper's headline schemes: PFC (the
	// deadlock-prone baseline) and both deployable GFC designs. CBFC and
	// conceptual GFC add nothing at this scale that clos128 doesn't show,
	// and each registered variant is a multi-minute full run.
	for _, fc := range []FC{PFC, GFCBuf, GFCTime} {
		Register(clos1024(fc))
	}
	// The k=24 frontier keeps the same three-scheme policy.
	for _, fc := range []FC{PFC, GFCBuf, GFCTime} {
		Register(clos3456(fc))
	}
}
