package trade

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"perfpred/internal/obs"
	"perfpred/internal/scenario"
	"perfpred/internal/workload"
)

// mixedScenario mirrors workload.MixedWorkload(400, 0.25) as a
// declarative spec with exponential think times.
func mixedScenario(t testing.TB) *scenario.Compiled {
	t.Helper()
	c, err := scenario.New("mixed").
		AddClosed("buy", 100, scenario.Exponential(workload.ThinkTimeMean), map[string]float64{"buy": 1}).
		AddClosed("browse", 300, scenario.Exponential(workload.ThinkTimeMean), map[string]float64{"browse": 1}).
		Compile("")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// fleetScenario mixes a closed cohort with bursty and patterned open
// cohorts — the shape the determinism and alloc contracts must hold
// under.
func fleetScenario(t testing.TB) *scenario.Compiled {
	t.Helper()
	c, err := scenario.New("fleet").
		AddClosed("shoppers", 120, scenario.Lognormal(workload.ThinkTimeMean, 1.5), map[string]float64{"browse": 0.75, "buy": 0.25}).
		AddPoisson("portal", 20, map[string]float64{"browse": 1}).
		Pattern(scenario.Diurnal(60, 0.5, 0)).
		AddMMPP("spikes", []scenario.MMPPStateSpec{{Rate: 2, MeanDwell: 20}, {Rate: 30, MeanDwell: 4}}, map[string]float64{"buy": 1}).
		Compile("")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func scenarioConfig(sc *scenario.Compiled) Config {
	return Config{
		Server:       workload.AppServF(),
		DB:           workload.CaseStudyDB(),
		Demands:      workload.CaseStudyDemands(),
		Scenario:     sc,
		Seed:         29,
		WarmUp:       10,
		Duration:     120,
		MaxRTSamples: 64,
	}
}

// A scenario whose cohorts are all closed with exponential think
// times declares exactly a legacy workload; the run must be
// bit-identical to the same workload configured through Load — same
// draw sequences, same trajectory, same statistics.
func TestScenarioClosedEquivalentToLegacy(t *testing.T) {
	legacy := scenarioConfig(nil)
	legacy.Scenario = nil
	legacy.Load = workload.MixedWorkload(400, 0.25)
	ref, err := Run(legacy)
	if err != nil {
		t.Fatal(err)
	}
	spec := scenarioConfig(mixedScenario(t))
	got, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "scenario vs legacy", ref, got)
}

// Fixed-seed spec runs must be bit-identical at 1, 2 and 4 shards:
// cohort generator streams are pure functions of (seed, pool, cohort)
// via sim.SplitSeed, so the pool→shard mapping cannot perturb them.
func TestScenarioShardDeterminism(t *testing.T) {
	base := scenarioConfig(fleetScenario(t))
	base.Pools = 4
	base.Duration = 60

	var ref *Result
	for _, shards := range []int{1, 2, 4} {
		cfg := base
		cfg.Shards = shards
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if shards == 1 {
			ref = res
			continue
		}
		sameResult(t, fmt.Sprintf("shards=%d vs 1", shards), ref, res)
	}

	// Golden fingerprint: pins the trajectory across releases, not just
	// across shard counts within one build. Regenerate with
	// UPDATE_SCENARIO_GOLDEN=1 go test ./internal/trade -run ShardDeterminism
	var fp strings.Builder
	for _, name := range sortedClassNames(ref) {
		cr := ref.PerClass[name]
		fmt.Fprintf(&fp, "%s %d %.17g %.17g\n", name, cr.Completed, cr.MeanRT, cr.RTStdDev)
	}
	golden := filepath.Join("testdata", "scenario_fleet.golden")
	if os.Getenv("UPDATE_SCENARIO_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(fp.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden missing (run with UPDATE_SCENARIO_GOLDEN=1 to create): %v", err)
	}
	if string(want) != fp.String() {
		t.Errorf("scenario fleet fingerprint drifted:\ngot:\n%swant:\n%s", fp.String(), want)
	}
}

func sortedClassNames(r *Result) []string {
	names := make([]string, 0, len(r.PerClass))
	for name := range r.PerClass {
		names = append(names, name)
	}
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	return names
}

// Scenario arrival sampling must stay zero-alloc in steady state with
// metrics enabled — the acceptance criterion of the subsystem. The
// scenario covers every generator kind that can run without files:
// lognormal think loops, diurnal-thinned Poisson and MMPP.
func TestScenarioSteadyStateZeroAlloc(t *testing.T) {
	reg := obs.NewRegistry()
	obs.Bind(reg)
	defer obs.Bind(nil)
	cfg := scenarioConfig(fleetScenario(t))
	cfg.Duration = 100000 // never reached; time advances manually
	s, until := steadySim(t, cfg)
	allocs := testing.AllocsPerRun(50, func() {
		until += 2
		s.eng.Run(until, 0)
	})
	if allocs != 0 {
		t.Fatalf("scenario request loop allocates %v objects per 2 simulated seconds, want 0", allocs)
	}
	if res := collect([]*simulator{s}, s.cfg.Duration, s.eng.Fired()); res.Throughput <= 0 {
		t.Fatal("empty collection")
	}
}

// Trace-replay cohorts feed recorded arrivals through the same pooled
// lifecycle, honouring recorded types and loop seams.
func TestScenarioTraceReplayRun(t *testing.T) {
	dir := t.TempDir()
	var sb strings.Builder
	sb.WriteString("time,type\n")
	for i := 0; i < 200; i++ {
		typ := "browse"
		if i%4 == 3 {
			typ = "buy"
		}
		fmt.Fprintf(&sb, "%.2f,%s\n", float64(i)*0.05, typ)
	}
	if err := os.WriteFile(filepath.Join(dir, "replay.csv"), []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	sc, err := scenario.New("replay").AddTrace("recorded", "replay.csv", true).Compile(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := scenarioConfig(sc)
	cfg.WarmUp = 5
	cfg.Duration = 60
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cr := res.PerClass["recorded"]
	// 200 arrivals per 10 s cycle = 20/s; the 60 s window sees ≈ 1200.
	if cr.Completed < 1000 || cr.Completed > 1400 {
		t.Fatalf("trace cohort completed %d, want ≈ 1200", cr.Completed)
	}
	if cr.MeanRT <= 0 {
		t.Fatal("trace cohort has no response times")
	}
}

// Windows reports the transient trajectory of a time-varying
// scenario: a flash sale must lift both throughput and response time
// during the spike relative to the pre-spike baseline.
func TestScenarioWindowsFlashSale(t *testing.T) {
	sc, err := scenario.New("flash").
		AddPoisson("shop", 40, map[string]float64{"browse": 1}).
		Pattern(scenario.FlashSale(120, 20, 60, 40, 3.5)).
		Compile("")
	if err != nil {
		t.Fatal(err)
	}
	cfg := scenarioConfig(sc)
	cfg.Duration = 300
	points, err := Windows(cfg, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 10 {
		t.Fatalf("got %d windows, want 10", len(points))
	}
	base := points[2] // 60–90 s: steady pre-flash
	peak := points[5] // 150–180 s: inside the hold
	if peak.Throughput < 2*base.Throughput {
		t.Fatalf("flash window throughput %v not well above baseline %v", peak.Throughput, base.Throughput)
	}
	if peak.MeanRT <= base.MeanRT {
		t.Fatalf("flash window meanRT %v not above baseline %v under 3.5× load", peak.MeanRT, base.MeanRT)
	}
	if _, err := Windows(cfg, 0); err == nil {
		t.Fatal("zero window accepted")
	}
	cfg.Pools = 2
	if _, err := Windows(cfg, 30); err == nil {
		t.Fatal("sharded windowed run accepted")
	}
}

func TestScenarioConfigValidation(t *testing.T) {
	sc := mixedScenario(t)
	cfg := scenarioConfig(sc)
	cfg.Load = workload.TypicalWorkload(10)
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("Scenario+Load accepted: %v", err)
	}
	cfg = scenarioConfig(sc)
	cfg.DetailedOperations = true
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "DetailedOperations") {
		t.Fatalf("Scenario+DetailedOperations accepted: %v", err)
	}
	cfg = scenarioConfig(sc)
	cfg.Cache = &CacheConfig{SizeBytes: 1 << 20, SessionBytesMean: 1024}
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "session cache") {
		t.Fatalf("Scenario+Cache accepted: %v", err)
	}
	// A cohort whose mix names a request type with no demand must fail
	// the demand-table check, same as a legacy Load.
	orphan, err := scenario.New("orphan").
		AddPoisson("ghost", 5, map[string]float64{"checkout": 1}).Compile("")
	if err != nil {
		t.Fatal(err)
	}
	cfg = scenarioConfig(orphan)
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "no demand") {
		t.Fatalf("orphan request type accepted: %v", err)
	}
}
