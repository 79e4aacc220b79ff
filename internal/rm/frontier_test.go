package rm

import (
	"math"
	"testing"

	"perfpred/internal/workload"
)

// tablePred is a deterministic fake: each architecture holds a fixed
// number of clients at any goal, with response time scaling linearly
// through the goal at that capacity.
type tablePred map[string]float64

func (p tablePred) Predict(arch string, n float64) (float64, error) {
	return 0.1 * n / p[arch], nil
}

func (p tablePred) MaxClients(arch string, goalRT float64) (float64, error) {
	return math.Floor(p[arch] * goalRT * 10), nil
}

func frontierPrices() []ArchPrice {
	mk := func(name string, x float64) workload.ServerArch {
		return workload.ServerArch{Name: name, Speed: x / workload.MaxThroughputF, MPL: 50, MaxThroughputTypical: x}
	}
	return []ArchPrice{
		{Arch: mk("CheapSlow", 86), HourlyCost: 0.08, Max: 3},
		{Arch: mk("Mid", 186), HourlyCost: 0.17, Max: 3},
		{Arch: mk("FastDear", 320), HourlyCost: 0.35, Max: 3},
	}
}

// The returned point set must cover every mix within the caps, carry
// consistent pricing, and — the property the frontier exists for —
// never leave a dominated mix unmarked (or mark a non-dominated one).
func TestCostFrontierDominanceProperty(t *testing.T) {
	pred := tablePred{"CheapSlow": 80, "Mid": 190, "FastDear": 330}
	points, err := CostFrontier(frontierPrices(), pred, workload.ThinkTimeMean, FrontierOptions{MaxServers: 6})
	if err != nil {
		t.Fatal(err)
	}
	// Mix count: all (a,b,c) with a,b,c ≤ 3, 1 ≤ a+b+c ≤ 6.
	want := 0
	for a := 0; a <= 3; a++ {
		for b := 0; b <= 3; b++ {
			for c := 0; c <= 3; c++ {
				if s := a + b + c; s >= 1 && s <= 6 {
					want++
				}
			}
		}
	}
	if len(points) != want {
		t.Fatalf("%d mixes evaluated, want %d", len(points), want)
	}
	prices := frontierPrices()
	frontier := 0
	for _, p := range points {
		var cost float64
		servers := 0
		for i, c := range p.Counts {
			cost += float64(c) * prices[i].HourlyCost
			servers += c
		}
		if math.Abs(cost-p.HourlyCost) > 1e-9 || servers != p.Servers {
			t.Fatalf("inconsistent pricing for %v: %+v", p.Counts, p)
		}
		if !p.Dominated {
			frontier++
		}
		// Independent dominance re-derivation for every point.
		dominated := false
		for _, q := range points {
			if q.Capacity >= p.Capacity && q.HourlyCost <= p.HourlyCost &&
				(q.Capacity > p.Capacity || q.HourlyCost < p.HourlyCost) {
				dominated = true
				break
			}
		}
		if dominated != p.Dominated {
			t.Errorf("mix %v: dominated = %v, brute force says %v", p.Counts, p.Dominated, dominated)
		}
	}
	if frontier == 0 {
		t.Fatal("empty frontier")
	}
	// The frontier must be strictly monotone: sorted by cost, each
	// non-dominated point holds strictly more clients than the last.
	lastCap := -1
	lastCost := -1.0
	for _, p := range points {
		if p.Dominated {
			continue
		}
		if p.HourlyCost < lastCost || (p.HourlyCost == lastCost && p.Capacity <= lastCap) ||
			(p.HourlyCost > lastCost && p.Capacity <= lastCap) {
			t.Errorf("frontier not monotone at %v (cap %d, cost %v after cap %d, cost %v)",
				p.Counts, p.Capacity, p.HourlyCost, lastCap, lastCost)
		}
		lastCap, lastCost = p.Capacity, p.HourlyCost
	}
	// $/req must price cheaper-per-request fleets below dearer ones
	// when both axes agree: a frontier point with more capacity per
	// dollar has the lower CostPerMReq.
	for _, p := range points {
		if p.Capacity > 0 && (p.ThroughputPerSec <= 0 || p.CostPerMReq <= 0) {
			t.Errorf("mix %v holds %d clients but has no priced throughput", p.Counts, p.Capacity)
		}
	}
}

// The frontier must respect per-architecture caps and reject
// degenerate configurations.
func TestCostFrontierValidation(t *testing.T) {
	pred := tablePred{"CheapSlow": 80, "Mid": 190, "FastDear": 330}
	if _, err := CostFrontier(nil, pred, 7, FrontierOptions{MaxServers: 2}); err == nil {
		t.Error("empty price list accepted")
	}
	prices := frontierPrices()
	if _, err := CostFrontier(prices, pred, 7, FrontierOptions{}); err == nil {
		t.Error("zero server cap accepted")
	}
	bad := frontierPrices()
	bad[0].HourlyCost = 0
	if _, err := CostFrontier(bad, pred, 7, FrontierOptions{MaxServers: 2}); err == nil {
		t.Error("free architecture accepted")
	}
	points, err := CostFrontier(prices, pred, workload.ThinkTimeMean, FrontierOptions{MaxServers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		for i, c := range p.Counts {
			if c > prices[i].Max {
				t.Errorf("mix %v exceeds cap for %s", p.Counts, prices[i].Arch.Name)
			}
		}
		if p.Servers > 2 {
			t.Errorf("mix %v exceeds fleet cap", p.Counts)
		}
	}
}

// PredictorEval must rank an exact copy of the truth at zero error and
// a biased family at its bias.
func TestPredictorEvalScoring(t *testing.T) {
	truth := tablePred{"Mid": 190}
	exact := tablePred{"Mid": 190}
	low := tablePred{"Mid": 150} // under-predicts capacity, over-predicts RT
	scores, err := PredictorEval([]EvalFamily{
		{Name: "exact", Pred: exact},
		{Name: "biased", Pred: low, StartupSimSeconds: 300},
	}, truth, []EvalScenario{{Arch: "Mid", Pops: []int{50, 100, 200}, GoalRTs: []float64{0.2, 0.5}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != 2 {
		t.Fatalf("%d scores", len(scores))
	}
	if s := scores[0]; s.MeanAbsRTErrPct != 0 || s.MeanAbsCapErrPct != 0 || s.RTProbes != 3 || s.CapProbes != 2 {
		t.Errorf("exact family scored %+v", s)
	}
	b := scores[1]
	if b.MeanAbsRTErrPct < 20 || b.MeanAbsCapErrPct < 15 {
		t.Errorf("biased family scored too well: %+v", b)
	}
	if b.StartupSimSeconds != 300 {
		t.Errorf("startup cost not carried: %+v", b)
	}
	if _, err := PredictorEval(nil, truth, nil); err == nil {
		t.Error("empty eval accepted")
	}
}
