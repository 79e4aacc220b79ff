package fleet

import (
	"sync/atomic"

	"perfpred/internal/obs"
)

// fleetMetrics are process-wide fleet-layer counters, aggregated over
// every run. The Router keeps plain per-origin/per-pool counters (each
// written only from its owning shard goroutine) and Run flushes the
// totals here once per run, so the routing hot path stays atomic-free
// and allocation-free even with metrics enabled.
type fleetMetrics struct {
	decisions       *obs.Counter   // routing decisions made
	remoteRoutes    *obs.Counter   // decisions that left the origin pool
	poolsVisited    *obs.Counter   // tree nodes the decisions examined
	barriers        *obs.Counter   // window barriers executed
	replans         *obs.Counter   // resource-manager plans cut in-loop
	affinityChanges *obs.Counter   // affinity edits applied after warm-up/drain
	replanSeconds   *obs.Histogram // wall-clock plan latency, seconds
}

var metrics atomic.Pointer[fleetMetrics]

// EnableMetrics registers the fleet layer's counters on r and turns
// instrumentation on for every run in the process. A nil r disables
// instrumentation again.
func EnableMetrics(r *obs.Registry) {
	if r == nil {
		metrics.Store(nil)
		return
	}
	metrics.Store(&fleetMetrics{
		decisions:       r.Counter("fleet_routing_decisions"),
		remoteRoutes:    r.Counter("fleet_remote_routes"),
		poolsVisited:    r.Counter("fleet_pools_visited"),
		barriers:        r.Counter("fleet_barriers"),
		replans:         r.Counter("fleet_replans"),
		affinityChanges: r.Counter("fleet_affinity_changes"),
		replanSeconds: r.Histogram("fleet_replan_seconds",
			1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1),
	})
}

// flushMetrics publishes one run's totals, once, at the end of Run.
func flushMetrics(res *Result) {
	m := metrics.Load()
	if m == nil {
		return
	}
	m.decisions.Add(res.Decisions)
	m.remoteRoutes.Add(res.Remote)
	m.poolsVisited.Add(res.Visited)
	m.barriers.Add(res.Barriers)
	m.replans.Add(uint64(res.Replans))
	m.affinityChanges.Add(uint64(res.AffinityChanges))
	for _, d := range res.ReplanLatencies {
		m.replanSeconds.Observe(d.Seconds())
	}
}
