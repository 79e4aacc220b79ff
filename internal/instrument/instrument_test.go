package instrument

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"perfpred/internal/bench"
	"perfpred/internal/obs"
	"perfpred/internal/serve"
	"perfpred/internal/trade"
	"perfpred/internal/workload"
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
// decides without visiting a pool. A prediction service, driven over
// HTTP, moves the serve_* metrics: every request for a store-backed
// method is a cache hit or a miss, a miss builds at most once, the
// gauges read 0 once the service has drained, and each admission queue
// held a caller at some point.
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
	driveService(t)

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
	if req, hits, misses := snap.Counters["serve_predict_requests"], snap.Counters["serve_cache_hits"], snap.Counters["serve_cache_misses"]; req == 0 || req != hits+misses {
		t.Errorf("serve_predict_requests = %d, want serve_cache_hits + serve_cache_misses = %d + %d (and not 0)", req, hits, misses)
	}
	if builds, misses := snap.Counters["serve_builds"], snap.Counters["serve_cache_misses"]; builds == 0 || builds > misses {
		t.Errorf("serve_builds = %d, want in [1, serve_cache_misses = %d]", builds, misses)
	}
	for _, name := range []string{"serve_inflight_requests", "serve_build_queue_depth", "serve_solve_queue_depth"} {
		if v, ok := snap.Gauges[name]; !ok || v != 0 {
			t.Errorf("gauge %q = %d (registered %v), want 0 once drained", name, v, ok)
		}
	}
	for _, name := range []string{"serve_build_queue_high_water", "serve_solve_queue_high_water"} {
		if v := snap.MaxGauges[name]; v < 1 {
			t.Errorf("high-water mark %q = %d, want at least 1", name, v)
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

// driveService runs a prediction service in process and sends it
// hybrid predictions, which the model store serves (two cold keys, one
// warm), and one layered capacity search, which takes a solve slot. It
// returns once the service has shut down.
func driveService(t *testing.T) {
	t.Helper()
	svc, err := serve.New(serve.Config{
		Archs:    workload.CaseStudyServers(),
		DB:       workload.CaseStudyDB(),
		Demands:  workload.CaseStudyDemands(),
		LaplaceB: 0.05, // a fixed percentile scale: no calibration runs
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	for _, path := range []string{
		"/v1/predict?arch=AppServF&clients=500",
		"/v1/predict?arch=AppServS&clients=300",
		"/v1/predict?arch=AppServF&clients=700",
		"/v1/capacity?arch=AppServF&goal_rt_s=0.3&method=lqn",
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
	}
	srv.Close()
	svc.Close()
}

// EnableAll registers exactly the committed metric set, name, kind and
// histogram bounds alike, on a fresh registry. The benchmark and the
// -report readers look metrics up by name, which no compiler checks: a
// dropped, renamed or re-bucketed metric fails here. After a deliberate
// change, update testdata/metrics.txt.
func TestEnableAllRegistersTheCommittedSet(t *testing.T) {
	reg := obs.NewRegistry()
	EnableAll(reg)
	defer EnableAll(nil)

	snap := reg.Snapshot()
	var got []string
	for name := range snap.Counters {
		got = append(got, "counter "+name)
	}
	for name := range snap.Gauges {
		got = append(got, "gauge "+name)
	}
	for name := range snap.MaxGauges {
		got = append(got, "max_gauge "+name)
	}
	for name, h := range snap.Histograms {
		line := "histogram " + name
		for _, b := range h.Bounds {
			line += " " + strconv.FormatFloat(b, 'g', -1, 64)
		}
		got = append(got, line)
	}
	name := func(line string) string { return strings.Fields(line)[1] }
	slices.SortFunc(got, func(a, b string) int { return strings.Compare(name(a), name(b)) })

	buf, err := os.ReadFile("testdata/metrics.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(buf)), "\n")
	for _, line := range want {
		if !slices.Contains(got, line) {
			t.Errorf("committed metric %q is not registered", line)
		}
	}
	for _, line := range got {
		if !slices.Contains(want, line) {
			t.Errorf("registered metric %q is not in testdata/metrics.txt", line)
		}
	}
	if len(got) != 65 {
		t.Errorf("%d metrics registered, want 65", len(got))
	}
}

// The switch is process-wide and the handles are read by worker
// goroutines: turning instrumentation on and off while a parallel
// sweep flushes must be race-free (make race runs this under the race
// detector) and change no result.
func TestSwitchTogglesUnderParallelSweep(t *testing.T) {
	defer EnableAll(nil)
	counts := []int{200, 500, 900, 1300}
	opt := trade.MeasureOptions{Seed: 17, WarmUp: 5, Duration: 20, Workers: 4}
	want, err := trade.MeasureCurve(workload.AppServF(), counts, 0, opt)
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for on := true; ; on = !on {
			select {
			case <-stop:
				return
			default:
			}
			if on {
				EnableAll(reg)
			} else {
				EnableAll(nil)
			}
		}
	}()
	got, err := trade.MeasureCurve(workload.AppServF(), counts, 0, opt)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		g, w := got[i].Res, want[i].Res
		if g.MeanRT != w.MeanRT || g.Throughput != w.Throughput || g.EventsFired != w.EventsFired {
			t.Errorf("%d clients: measured with the switch toggling, RT %v, X %v, %d events; without, %v, %v, %d",
				counts[i], g.MeanRT, g.Throughput, g.EventsFired, w.MeanRT, w.Throughput, w.EventsFired)
		}
	}
}
