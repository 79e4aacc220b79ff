package main

import "perfpred/internal/bench"

// metricDef names one metric and its unit.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// metricSpec is a metric as BENCHMARK.json declares it: the lists below
// repeated with direction and bound. The test holds the two together.
type metricSpec struct {
	metricDef
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// endToEnd is what a user of the system sees. Every workload reports
// every one of them, with tracing off. "Operation" is the workload's
// own: a request (serve_*), a simulated event (fleet_*), an experiment
// (paper_repro). Each is a median over the run's fixed-work units.
var endToEnd = []metricDef{
	{"setup_s", "s"},      // set-up before the first unit: median of setupRuns set-ups
	{"wall_s", "s"},       // host seconds one unit takes
	{"ops_per_s", "1/s"},  // operations per host second within a unit
	{"peak_rss_mb", "MB"}, // VmHWM of the process at the end of the run
}

// perLayer is printed by the traced run. Layers are the module names. A
// metric of a layer the workload never enters reads 0; the micro-probes
// (see probes.go) run on every workload.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	ms := []metricDef{
		// serve: the request path, from the workload's own traffic.
		{"serve.req_per_s", "1/s"},
		{"serve.latency_p50_us", "us"},
		{"serve.latency_p99_us", "us"},
		{"serve.direct_us_p50", "us"},
		{"serve.codec_us_p50", "us"},
		{"serve.socket_us_p50", "us"},
		{"serve.kind_us_p50.hybrid", "us"},
		{"serve.kind_us_p50.percentile", "us"},
		{"serve.kind_us_p50.capacity", "us"},
		{"serve.kind_us_p50.lqn", "us"},
		{"serve.kind_us_p50.regress", "us"},
		{"serve.cache_hit_ratio", "ratio"},
		{"serve.cache_evictions", "count"},
		{"serve.builds", "count"},
		{"serve.build_ms_p50", "ms"},
		{"serve.hit_latency_us_p50", "us"},
		{"serve.batch_mean_size", "count"},
		{"serve.batch_solves", "count"},
		{"serve.solve_queue_high_water", "count"},
		{"serve.rejected_429", "count"},
		{"serve.deadline_504", "count"},

		{"sessioncache.lru_get_ns", "ns"},
		{"sessioncache.lru_put_evict_ns", "ns"},

		{"hybrid.build_ms", "ms"},

		{"lqn.solve_us", "us"},
		{"lqn.solve_cold_us", "us"},
		{"lqn.warm_sweep_us_per_point", "us"},
		{"lqn.mva_iterations_per_solve", "count"},
		{"lqn.warm_hit_ratio", "ratio"},

		{"hist.calibrate_us", "us"},
		{"hist.predict_ns", "ns"},

		{"regress.train_ms", "ms"},
		{"regress.predict_ns", "ns"},

		{"trade.run_ms", "ms"},
		{"trade.events_per_s", "1/s"},
		{"trade.allocs_per_run", "count"},
		{"trade.calibration_run_ms", "ms"},

		{"sim.hold_ns_heap", "ns"},
		{"sim.hold_ns_calendar", "ns"},
		{"sim.hold_ns_heap_small", "ns"},
		{"sim.hold_ns_calendar_small", "ns"},
		{"sim.coordinator_window_us", "us"},
		{"sim.events_fired", "count"},
		{"sim.event_reuse_ratio", "ratio"},

		// fleet: from the workload's own runs, then the routing probes.
		{"fleet.events_per_s", "1/s"},
		{"fleet.sim_s_per_wall_s", "ratio"},
		{"fleet.decisions", "count"},
		{"fleet.remote_share", "ratio"},
		{"fleet.barriers", "count"},
		{"fleet.affinity_changes", "count"},
		{"fleet.replan_ms_p50", "ms"},
		{"fleet.replan_ms_max", "ms"},
		{"fleet.replan_share", "ratio"},
		{"fleet.route_share_est", "ratio"},
		{"fleet.routed_over_static", "ratio"},
		{"fleet.route_ns_64.affinity", "ns"},
		{"fleet.route_ns_625.affinity", "ns"},
		{"fleet.route_ns_625.static", "ns"},
		{"fleet.route_ns_625.leastrt", "ns"},

		{"rm.replan_cold_ms", "ms"},
		{"rm.replan_warm_ms", "ms"},
		{"rm.allocate_us", "us"},
		{"rm.predictor_calls_per_replan", "count"},

		{"scenario.gen_arrivals_per_s", "1/s"},

		{"stats.p2_add_ns", "ns"},
		{"stats.percentile_us_100k", "us"},

		{"go.alloc_bytes_per_op", "B"},
		{"go.gc_cycles", "count"},
		{"go.gc_pause_total_ms", "ms"},

		{"obs.tracing_overhead_pct", "%"},
		{"trace.spans", "count"},
	}
	for _, name := range bench.Experiments() {
		ms = append(ms, metricDef{"bench.exp_ms." + name, "ms"})
	}
	return ms
}

func unitOf(defs []metricDef, name string) string {
	for _, m := range defs {
		if m.Name == name {
			return m.Unit
		}
	}
	panic("benchmark: undeclared metric " + name)
}
