package instrument

import (
	"bytes"
	"encoding/json"
	"testing"

	"perfpred/internal/bench"
	"perfpred/internal/obs"
)

// EnableAll must reach the hot paths, not just compile: two quick
// experiments move the solver, simulator and session-cache counters on
// a private registry, and the snapshot survives the JSON round trip a
// -report file makes.
func TestEnableAllReachesHotPaths(t *testing.T) {
	reg := obs.NewRegistry()
	EnableAll(reg)
	defer EnableAll(nil)

	suite := bench.NewSuite(17)
	for _, name := range []string{"gradient", "cache"} {
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
		"sessioncache_solves", "trade_cache_hits",
	} {
		if v, ok := snap.Counters[name]; !ok {
			t.Errorf("counter %q missing from the snapshot", name)
		} else if v == 0 {
			t.Errorf("counter %q is zero", name)
		}
	}
}
