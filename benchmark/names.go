package main

// The names below are the benchmark's vocabulary. ../BENCHMARK.json declares
// exactly the same workloads, end-to-end metrics (with the same unit,
// direction and bound) and per-layer metrics; TestDeclaredNames fails on an
// orphan on either side.

// Workers is the sweep pool size: nproc of the reference VM. It is a
// constant, not a knob, so cells_per_s means the same thing on every run.
const Workers = 2

// Direction says which way a metric improves.
type Direction string

const (
	Lower  Direction = "lower"
	Higher Direction = "higher"
)

// MetricDef declares one metric.
type MetricDef struct {
	Name   string
	Unit   string
	Better Direction
	// Bound is the share of the baseline median by which the metric may
	// worsen before a change counts as a regression (end-to-end only).
	Bound float64
}

// endToEnd are the metrics a user of the simulator sees, reported for every
// workload as the median over the measured repetitions.
var endToEnd = []MetricDef{
	{"wall_s", "s", Lower, 0.25},
	{"setup_s", "s", Lower, 0.25},
	{"cells_per_s", "1/s", Higher, 0.25},
	{"alloc_mb", "MB", Lower, 0.20},
}

// eventsPerS and liveHeapMB are reported beside the declared metrics, in the
// JSON report and the printed table, on the workloads they are defined on:
// events_per_s where the harness can see the engine (ring_packet,
// clos1024_packet), live_heap_mb on clos1024_packet. BENCHMARK.json's flat
// metric list has no room for a metric defined on some workloads only, so
// there they are covered by cells_per_s (the same run-phase time) and by
// netsim.ns_per_event.* and netsim.live_heap_mb.clos1024 in the traced run.
var (
	eventsPerS = MetricDef{"events_per_s", "1/s", Higher, 0.25}
	liveHeapMB = MetricDef{"live_heap_mb", "MB", Lower, 0.05}
)

// perLayer are measured only in the traced run, by timing exported calls
// from outside; they carry no bound.
var perLayer = []MetricDef{
	// eventsim: standing population, and the hold model at three depths.
	{"eventsim.pending_p50.ring", "count", Lower, 0},
	{"eventsim.pending_max.ring", "count", Lower, 0},
	{"eventsim.pending_p50.clos1024", "count", Lower, 0},
	{"eventsim.pending_max.clos1024", "count", Lower, 0},
	{"eventsim.hold_ns_d16", "ns", Lower, 0},
	{"eventsim.hold_ns_d4k", "ns", Lower, 0},
	{"eventsim.hold_ns_d1m", "ns", Lower, 0},
	{"eventsim.cancel_ns", "ns", Lower, 0},
	// netsim: the bare ladder, the handler share and each optional tap.
	{"netsim.ns_per_event.ring", "ns", Lower, 0},
	{"netsim.ns_per_event.clos128", "ns", Lower, 0},
	{"netsim.ns_per_event.clos1024", "ns", Lower, 0},
	{"netsim.allocs_per_event.ring", "count", Lower, 0},
	{"netsim.allocs_per_event.clos128", "count", Lower, 0},
	{"netsim.allocs_per_event.clos1024", "count", Lower, 0},
	{"netsim.live_heap_mb.clos1024", "MB", Lower, 0},
	{"netsim.handler_ns.ring", "ns", Lower, 0},
	{"netsim.handler_ns.clos1024", "ns", Lower, 0},
	{"netsim.tap_metrics_ns", "ns", Lower, 0},
	{"netsim.tap_series_ns", "ns", Lower, 0},
	{"netsim.tap_faults_ns", "ns", Lower, 0},
	{"netsim.tap_detector_ns", "ns", Lower, 0},
	{"netsim.tap_dcfit_ns", "ns", Lower, 0},
	{"netsim.tap_governor_ns", "ns", Lower, 0},
	// flowcontrol / core: per scheme on the ring, and the two primitives.
	{"flowcontrol.ns_per_event.pfc", "ns", Lower, 0},
	{"flowcontrol.ns_per_event.cbfc", "ns", Lower, 0},
	{"flowcontrol.ns_per_event.gfcbuf", "ns", Lower, 0},
	{"flowcontrol.ns_per_event.gfctime", "ns", Lower, 0},
	{"flowcontrol.ns_per_event.bfc", "ns", Lower, 0},
	{"flowcontrol.ratelimiter_ns", "ns", Lower, 0},
	{"core.stage_lookup_ns", "ns", Lower, 0},
	// topology / routing / cbd: the setup split.
	{"topology.fattree_ms.k16", "ms", Lower, 0},
	{"routing.spf_ms.k16", "ms", Lower, 0},
	{"routing.path_ns", "ns", Lower, 0},
	{"cbd.all_pairs_ms.k8", "ms", Lower, 0},
	{"cbd.all_pairs_ms.k16", "ms", Lower, 0},
	{"cbd.channels.k16", "count", Lower, 0},
	// scenario / analytic.
	{"scenario.build_ms.clos1024", "ms", Lower, 0},
	{"scenario.predict_ms.clos1024", "ms", Lower, 0},
	{"analytic.predict_us.k4", "us", Lower, 0},
	// deadlock detectors on a mid-run network.
	{"deadlock.check_us.ring", "us", Lower, 0},
	{"deadlock.check_us.k16", "us", Lower, 0},
	{"deadlock.dcfit_check_us.ring", "us", Lower, 0},
	// workload: denominators that a pure speed-up must not move.
	{"workload.flows_started.clos1024", "count", Higher, 0},
	{"workload.flows_completed.clos1024", "count", Higher, 0},
	// experiments: the sweep's job list replayed serially.
	{"experiments.generate_us.k4", "us", Lower, 0},
	{"experiments.cbd_prone_share", "share", Higher, 0},
	{"experiments.cell_ms.pfc", "ms", Lower, 0},
	{"experiments.cell_ms.gfcbuf", "ms", Lower, 0},
	{"experiments.cell_ms.gfctime", "ms", Lower, 0},
	{"experiments.faultcell_ms.pfc", "ms", Lower, 0},
	{"experiments.faultcell_ms.cbfc", "ms", Lower, 0},
	{"experiments.faultcell_ms.gfcbuf", "ms", Lower, 0},
	{"experiments.faultcell_ms.gfctime", "ms", Lower, 0},
	{"experiments.faultcell_ms.bfc", "ms", Lower, 0},
	// fluid.
	{"fluid.cell_ms.gfcbuf", "ms", Lower, 0},
	{"fluid.cell_ms.gfctime", "ms", Lower, 0},
	{"fluid.steps_per_s", "1/s", Higher, 0},
	{"fluid.integrated_share", "share", Lower, 0},
	{"fluid.run_single_us", "us", Lower, 0},
	{"fluid.hw_gap_band", "band", Lower, 0},
	// runner and checkpoint store.
	{"runner.job_overhead_ns", "ns", Lower, 0},
	{"runner.supervise_ns", "ns", Lower, 0},
	{"runner.store_record_per_s", "1/s", Higher, 0},
	{"runner.store_replay_per_s", "1/s", Higher, 0},
	{"runner.sweep_overhead_share", "share", Lower, 0},
	{"runner.speedup_w2", "ratio", Higher, 0},
	// harness: how far the traced repetition can be trusted.
	{"trace.overhead_share", "share", Lower, 0},
	{"trace.unattributed_share", "share", Lower, 0},
}
