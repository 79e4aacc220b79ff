package instrument

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"perfpred/internal/bench"
	"perfpred/internal/obs"
)

// EnableAll must reach the hot paths, not just compile: two quick
// experiments and the fleet study move the solver, simulator,
// session-cache and fleet counters on a private registry, and the
// snapshot survives the JSON round trip a -report file makes. Each layer's counters must also agree with each
// other: every fired event was scheduled on a recycled or a fresh one,
// and the deepest queue never held more events than were ever carved
// fresh; a calendar pop is a fired event, and the dequeue search that
// found it looked at it at least; warm-start hits and misses, and convergence failures, are
// solves, and a solve takes at least one MVA iteration; a session-cache
// rebuild is an iteration and a non-converged solve a solve; and every
// completed request came from the request pool, recycled or fresh; a
// remote route is a routing decision, and a window barrier cuts at
// most one replan. trade_cache_evicts ≤ trade_cache_misses does not hold: the
// byte-bounded LRU may evict several entries to insert one. Nor does
// fleet_routing_decisions ≤ fleet_pools_visited: the static scorer
// decides without visiting a pool.
func TestEnableAllReachesHotPaths(t *testing.T) {
	reg := obs.NewRegistry()
	EnableAll(reg)
	defer EnableAll(nil)

	suite := bench.NewSuite(17)
	for _, name := range []string{"gradient", "cache", "fleet-ab"} {
		if _, err := suite.Run(name); err != nil {
			t.Fatalf("experiment %s: %v", name, err)
		}
	}

	var buf bytes.Buffer
	if err := reg.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot does not parse: %v", err)
	}
	for _, name := range []string{
		"lqn_solver_solves", "lqn_solver_mva_iterations",
		"sim_events_fired", "trade_requests_completed",
		"sessioncache_solves", "trade_cache_hits", "fleet_routing_decisions",
		"sim_calendar_pops", "sim_calendar_scanned",
	} {
		if v, ok := snap.Counters[name]; !ok {
			t.Errorf("counter %q missing from the snapshot", name)
		} else if v == 0 {
			t.Errorf("counter %q is zero", name)
		}
	}
	fired, reuses, allocs := snap.Counters["sim_events_fired"], snap.Counters["sim_event_reuses"], snap.Counters["sim_event_allocs"]
	if fired > reuses+allocs {
		t.Errorf("sim_events_fired = %d exceeds sim_event_reuses + sim_event_allocs = %d + %d", fired, reuses, allocs)
	}
	if high := snap.MaxGauges["sim_heap_depth_high_water"]; high <= 0 || uint64(high) > allocs {
		t.Errorf("sim_heap_depth_high_water = %d, want in (0, sim_event_allocs = %d]", high, allocs)
	}
	sum := func(names []string) uint64 {
		var n uint64
		for _, name := range names {
			v, ok := snap.Counters[name]
			if !ok {
				t.Errorf("counter %q missing from the snapshot", name)
			}
			n += v
		}
		return n
	}
	for _, r := range []struct{ small, large []string }{
		{[]string{"sim_calendar_pops"}, []string{"sim_events_fired"}},
		{[]string{"sim_calendar_pops"}, []string{"sim_calendar_scanned"}},
		{[]string{"lqn_solver_warm_hits", "lqn_solver_warm_misses"}, []string{"lqn_solver_solves"}},
		{[]string{"lqn_solver_solves"}, []string{"lqn_solver_mva_iterations"}},
		{[]string{"lqn_solver_convergence_failures"}, []string{"lqn_solver_solves"}},
		{[]string{"sessioncache_rebuilds"}, []string{"sessioncache_iterations"}},
		{[]string{"sessioncache_nonconverged"}, []string{"sessioncache_solves"}},
		{[]string{"trade_requests_completed"}, []string{"trade_request_pool_reuses", "trade_request_pool_allocs"}},
		{[]string{"fleet_remote_routes"}, []string{"fleet_routing_decisions"}},
		{[]string{"fleet_replans"}, []string{"fleet_barriers"}},
	} {
		if small, large := sum(r.small), sum(r.large); small > large {
			t.Errorf("%s = %d exceeds %s = %d", strings.Join(r.small, " + "), small, strings.Join(r.large, " + "), large)
		}
	}
}
