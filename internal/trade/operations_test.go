package trade

import (
	"fmt"
	"math"
	"testing"

	"perfpred/internal/workload"
)

func TestBrowseOperationsTableSane(t *testing.T) {
	ops := browseOperations()
	if err := validateOperations(ops); err != nil {
		t.Fatal(err)
	}
	// Weights form a distribution.
	var w float64
	for _, op := range ops {
		w += op.Weight
	}
	if math.Abs(w-1) > 1e-9 {
		t.Fatalf("browse weights sum to %v", w)
	}
	// Demand scales average to 1: the operation-level model and the
	// coarse request-type model agree in aggregate.
	if got := meanBrowseScale(); math.Abs(got-1) > 0.02 {
		t.Fatalf("mean browse demand scale = %v, want ≈1", got)
	}
}

func TestValidateOperations(t *testing.T) {
	if err := validateOperations(nil); err == nil {
		t.Fatal("empty table should fail")
	}
	bad := []Operation{{Name: "", DemandScale: 1}}
	if err := validateOperations(bad); err == nil {
		t.Fatal("unnamed op should fail")
	}
	bad = []Operation{{Name: "x", DemandScale: 0}}
	if err := validateOperations(bad); err == nil {
		t.Fatal("zero scale should fail")
	}
	bad = []Operation{{Name: "x", DemandScale: 1, DBCalls: -1}}
	if err := validateOperations(bad); err == nil {
		t.Fatal("negative db calls should fail")
	}
}

func TestPortfolioScaleNormalised(t *testing.T) {
	// Over a 10-buy session (holdings 0..9) the scales average to 1.
	var sum float64
	for h := 0; h < 10; h++ {
		sum += portfolioScale(h)
	}
	if math.Abs(sum/10-1) > 1e-9 {
		t.Fatalf("session-average portfolio scale = %v, want 1", sum/10)
	}
	// And later buys cost more than earlier ones.
	if portfolioScale(9) <= portfolioScale(0) {
		t.Fatal("portfolio growth should raise demand")
	}
}

func detailedConfig(load workload.Workload) Config {
	return Config{
		Server:             workload.AppServF(),
		DB:                 workload.CaseStudyDB(),
		Demands:            workload.CaseStudyDemands(),
		Load:               load,
		Seed:               43,
		WarmUp:             40,
		Duration:           160,
		DetailedOperations: true,
	}
}

func TestDetailedBrowseOperationMix(t *testing.T) {
	res, err := Run(detailedConfig(workload.TypicalWorkload(500)))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerOperation) != 4 {
		t.Fatalf("operations seen = %d, want 4", len(res.PerOperation))
	}
	total := 0
	byName := map[string]OperationResult{}
	for _, op := range res.PerOperation {
		total += op.Completed
		byName[op.Operation] = op
	}
	// Frequencies track the weights.
	for _, op := range browseOperations() {
		got := float64(byName[op.Name].Completed) / float64(total)
		if math.Abs(got-op.Weight) > 0.02 {
			t.Fatalf("%s frequency = %v, want ≈%v", op.Name, got, op.Weight)
		}
	}
	// Heavier operations take longer: portfolio (1.5×) vs home (0.7×).
	if byName["portfolio"].MeanRT <= byName["home"].MeanRT {
		t.Fatalf("portfolio RT %v should exceed home RT %v",
			byName["portfolio"].MeanRT, byName["home"].MeanRT)
	}
}

func TestDetailedBuySessionStructure(t *testing.T) {
	load := workload.Workload{{Class: workload.BuyClass(0), Clients: 300}}
	res, err := Run(detailedConfig(load))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]OperationResult{}
	for _, op := range res.PerOperation {
		byName[op.Operation] = op
	}
	reg := byName["register-login"].Completed
	buys := byName["buy"].Completed
	logoffs := byName["logoff"].Completed
	if reg == 0 || buys == 0 || logoffs == 0 {
		t.Fatalf("missing session phases: %d/%d/%d", reg, buys, logoffs)
	}
	// Sessions issue ~10 buys per register/logoff pair (§3.1).
	ratio := float64(buys) / float64(reg)
	if ratio < 8.5 || ratio > 11.5 {
		t.Fatalf("buys per session = %v, want ≈10", ratio)
	}
	if math.Abs(float64(logoffs-reg)) > 0.1*float64(reg) {
		t.Fatalf("registers %d and logoffs %d should balance", reg, logoffs)
	}
}

func TestDetailedAggregatesMatchCoarseModel(t *testing.T) {
	// The operation-level model must agree with the coarse request-type
	// model in aggregate: similar throughput and mean RT for the same
	// workload.
	load := workload.MixedWorkload(700, 0.25)
	coarseCfg := detailedConfig(load)
	coarseCfg.DetailedOperations = false
	coarse, err := Run(coarseCfg)
	if err != nil {
		t.Fatal(err)
	}
	detailed, err := Run(detailedConfig(load))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(detailed.Throughput-coarse.Throughput)/coarse.Throughput > 0.05 {
		t.Fatalf("throughput: detailed %v vs coarse %v", detailed.Throughput, coarse.Throughput)
	}
	if math.Abs(detailed.MeanRT-coarse.MeanRT)/coarse.MeanRT > 0.12 {
		t.Fatalf("mean RT: detailed %v vs coarse %v", detailed.MeanRT, coarse.MeanRT)
	}
	if len(detailed.PerOperation) < 6 {
		t.Fatalf("operations seen = %d", len(detailed.PerOperation))
	}
	if len(coarse.PerOperation) != 0 {
		t.Fatal("coarse run must not report operations")
	}
}

// meanBrowseScale returns the browse mix's weight-averaged demand
// scale, which the table keeps at ~1.
func meanBrowseScale() float64 {
	var wSum, sSum float64
	for _, op := range browseOperations() {
		wSum += op.Weight
		sSum += op.Weight * op.DemandScale
	}
	return sSum / wSum
}

// validateOperations sanity-checks an operation table.
func validateOperations(ops []Operation) error {
	if len(ops) == 0 {
		return fmt.Errorf("trade: empty operation table")
	}
	for _, op := range ops {
		if op.Name == "" {
			return fmt.Errorf("trade: unnamed operation")
		}
		if op.DemandScale <= 0 {
			return fmt.Errorf("trade: operation %q needs positive demand scale", op.Name)
		}
		if op.DBCalls < 0 || op.Weight < 0 {
			return fmt.Errorf("trade: operation %q has negative db calls or weight", op.Name)
		}
	}
	return nil
}
