package rm

import (
	"math"
	"testing"

	"perfpred/internal/lqn"
	"perfpred/internal/trade"
	"perfpred/internal/workload"
)

func testOracle() *SimOracle {
	return NewSimOracle(
		[]workload.ServerArch{workload.AppServS(), workload.AppServF()},
		trade.MeasureOptions{Seed: 7, WarmUp: 5, Duration: 20},
	)
}

func TestSimOracleUnknownArch(t *testing.T) {
	o := testOracle()
	if _, err := o.Predict("NoSuchServer", 100); err == nil {
		t.Fatal("unknown architecture should fail")
	}
	if _, err := o.MaxClients("NoSuchServer", 0.1); err == nil {
		t.Fatal("unknown architecture should fail")
	}
	if _, err := o.MaxClients("AppServS", 0); err == nil {
		t.Fatal("non-positive goal should fail")
	}
}

func TestSimOraclePredictMemoized(t *testing.T) {
	o := testOracle()
	a, err := o.Predict("AppServF", 200)
	if err != nil {
		t.Fatal(err)
	}
	if a <= 0 {
		t.Fatalf("mean RT = %v, want positive", a)
	}
	b, err := o.Predict("AppServF", 200)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("memoized probe diverged: %v vs %v", a, b)
	}
	// Fractional populations round to the same probe.
	c, err := o.Predict("AppServF", 200.4)
	if err != nil {
		t.Fatal(err)
	}
	if a != c {
		t.Fatalf("rounded probe diverged: %v vs %v", a, c)
	}
}

func TestSimOracleSaturationGrows(t *testing.T) {
	o := testOracle()
	light, err := o.Predict("AppServS", 50)
	if err != nil {
		t.Fatal(err)
	}
	heavy, err := o.Predict("AppServS", 3000)
	if err != nil {
		t.Fatal(err)
	}
	if heavy <= light {
		t.Fatalf("response time should grow past saturation: %v at 50 clients vs %v at 3000", light, heavy)
	}
}

func TestSimOracleMaxClients(t *testing.T) {
	o := testOracle()
	const goal = 0.1 // 100 ms mean-RT goal
	capacity, err := o.MaxClients("AppServS", goal)
	if err != nil {
		t.Fatal(err)
	}
	if capacity < 1 {
		t.Fatalf("capacity = %v, want at least one client", capacity)
	}
	within, err := o.Predict("AppServS", capacity)
	if err != nil {
		t.Fatal(err)
	}
	if within > goal {
		t.Fatalf("measured RT %v at claimed capacity %v exceeds goal %v", within, capacity, goal)
	}
	beyond, err := o.Predict("AppServS", capacity+1)
	if err != nil {
		t.Fatal(err)
	}
	if beyond <= goal {
		t.Fatalf("capacity %v is not maximal: %v clients still meet the goal", capacity, capacity+1)
	}
}

// TestSimOracleAsEvaluationTruth exercises the oracle in its intended
// role: the truth predictor of a resource-manager evaluation.
func TestSimOracleAsEvaluationTruth(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed capacity searches")
	}
	o := testOracle()
	capF, err := o.MaxClients("AppServF", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	capS, err := o.MaxClients("AppServS", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if capF <= capS {
		t.Fatalf("the faster architecture should hold more clients: F=%v S=%v", capF, capS)
	}
}

// A population whose float→int conversion overflows must be refused,
// not answered with one client's response time: int(math.Round(1e19))
// wraps negative and the ≥ 1 clamp made it 1.
func TestPredictorsRefuseOverflowingPopulation(t *testing.T) {
	lq, err := NewLQNPredictor([]workload.ServerArch{workload.AppServF()}, workload.CaseStudyDB(),
		workload.CaseStudyDemands(), workload.BrowseClass(0.300), lqn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range map[string]Predictor{"lqn": lq, "oracle": testOracle()} {
		for _, n := range []float64{1e19, maxOracleClients + 1, math.Inf(1), math.NaN()} {
			if rt, err := p.Predict("AppServF", n); err == nil {
				t.Errorf("%s: population %v answered %v s, want an error", name, n, rt)
			}
		}
	}
}
