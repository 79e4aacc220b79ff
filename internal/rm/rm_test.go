package rm

import (
	"fmt"
	"math"
	"testing"

	"perfpred/internal/hist"
	"perfpred/internal/sla"
	"perfpred/internal/workload"
)

// truthModels builds analytic per-architecture models shaped like the
// case study (§4.2 scaling laws), used as the "real system" in tests.
func truthModels() ModelSet {
	mk := func(arch workload.ServerArch) *hist.ServerModel {
		x := arch.MaxThroughputTypical
		return &hist.ServerModel{
			Arch:          arch,
			MaxThroughput: x,
			CL:            0.0002*x + 0.05,
			LambdaL:       3.0 * math.Pow(x, -1.8),
			LambdaU:       1.0 / x,
			CU:            -workload.ThinkTimeMean,
			M:             0.14,
		}
	}
	return ModelSet{
		"AppServS":  mk(workload.AppServS()),
		"AppServF":  mk(workload.AppServF()),
		"AppServVF": mk(workload.AppServVF()),
	}
}

func TestSplitLoadExact(t *testing.T) {
	classes, err := SplitLoad(1000, CaseStudyShares())
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range classes {
		total += c.Clients
	}
	if total != 1000 {
		t.Fatalf("split total = %d", total)
	}
	if classes[0].Clients != 100 || classes[1].Clients != 450 || classes[2].Clients != 450 {
		t.Fatalf("split = %+v", classes)
	}
	// Rounding stays exact for awkward totals.
	classes, err = SplitLoad(997, CaseStudyShares())
	if err != nil {
		t.Fatal(err)
	}
	total = 0
	for _, c := range classes {
		total += c.Clients
	}
	if total != 997 {
		t.Fatalf("awkward split total = %d", total)
	}
}

func TestSplitLoadErrors(t *testing.T) {
	if _, err := SplitLoad(-1, CaseStudyShares()); err == nil {
		t.Fatal("negative total should fail")
	}
	if _, err := SplitLoad(10, []ClassShare{{Name: "x", GoalRT: 1, Fraction: 0.5}}); err == nil {
		t.Fatal("non-unit fractions should fail")
	}
	if _, err := SplitLoad(10, []ClassShare{
		{Name: "x", GoalRT: 1, Fraction: -0.5}, {Name: "y", GoalRT: 1, Fraction: 1.5},
	}); err == nil {
		t.Fatal("negative fraction should fail")
	}
}

func TestAllocateRespectsPriorityOrder(t *testing.T) {
	truth := truthModels()
	servers := []Server{{Name: "only", Arch: "AppServS", Power: 86}}
	// More demand than the one server can hold: the looser-goal class
	// must be rejected first.
	classes := []Class{
		{Name: "loose", GoalRT: 0.600, Clients: 2000},
		{Name: "tight", GoalRT: 0.150, Clients: 100},
	}
	plan, err := Allocate(classes, servers, truth, 1.0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.plannedFor("tight") != 100 {
		t.Fatalf("tight class planned %d of 100", plan.plannedFor("tight"))
	}
	if plan.RejectedPlanned["loose"] == 0 {
		t.Fatal("loose class should bear the rejection")
	}
	if plan.RejectedPlanned["tight"] != 0 {
		t.Fatal("tight class should be fully placed")
	}
}

func TestAllocateLastServerRule(t *testing.T) {
	truth := truthModels()
	servers := []Server{
		{Name: "big", Arch: "AppServVF", Power: 320},
		{Name: "small", Arch: "AppServS", Power: 86},
	}
	// A class small enough to fit on either server: with the rule it
	// takes the smallest feasible server; without it, the biggest.
	classes := []Class{{Name: "c", GoalRT: 0.600, Clients: 100}}
	withRule, err := Allocate(classes, servers, truth, 1.0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(withRule.Allocations) != 1 || withRule.Allocations[0].Server != "small" {
		t.Fatalf("with rule: allocations = %+v, want all on small", withRule.Allocations)
	}
	without, err := Allocate(classes, servers, truth, 1.0, Options{DisableLastServerRule: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(without.Allocations) != 1 || without.Allocations[0].Server != "big" {
		t.Fatalf("without rule: allocations = %+v, want all on big", without.Allocations)
	}
}

func TestAllocateSlackInflatesPlan(t *testing.T) {
	truth := truthModels()
	servers := CaseStudyServers()
	classes := []Class{{Name: "c", GoalRT: 0.600, Clients: 1000}}
	plan, err := Allocate(classes, servers, truth, 1.1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.plannedFor("c"); got != 1100 {
		t.Fatalf("planned = %d, want 1100 (slack-inflated)", got)
	}
}

func TestAllocateUsagePct(t *testing.T) {
	truth := truthModels()
	servers := []Server{
		{Name: "a", Arch: "AppServS", Power: 86},
		{Name: "b", Arch: "AppServVF", Power: 320},
	}
	classes := []Class{{Name: "c", GoalRT: 0.600, Clients: 10}}
	plan, err := Allocate(classes, servers, truth, 1.0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Last-server rule puts 10 clients on the small server only.
	want := 100 * 86.0 / 406.0
	if math.Abs(plan.UsagePct-want) > 1e-9 {
		t.Fatalf("usage = %v, want %v", plan.UsagePct, want)
	}
}

func TestAllocateErrors(t *testing.T) {
	truth := truthModels()
	servers := CaseStudyServers()
	classes := []Class{{Name: "c", GoalRT: 0.6, Clients: 10}}
	if _, err := Allocate(nil, servers, truth, 1, Options{}); err == nil {
		t.Fatal("no classes should fail")
	}
	if _, err := Allocate(classes, nil, truth, 1, Options{}); err == nil {
		t.Fatal("no servers should fail")
	}
	if _, err := Allocate(classes, servers, truth, -1, Options{}); err == nil {
		t.Fatal("negative slack should fail")
	}
	if _, err := Allocate([]Class{{Name: "c", GoalRT: 0, Clients: 1}}, servers, truth, 1, Options{}); err == nil {
		t.Fatal("zero goal should fail")
	}
	if _, err := Allocate(classes, []Server{{Name: "s", Arch: "AppServS", Power: 0}}, truth, 1, Options{}); err == nil {
		t.Fatal("zero power should fail")
	}
	if _, err := Allocate(classes, []Server{{Name: "s", Arch: "ghost", Power: 1}}, truth, 1, Options{}); err == nil {
		t.Fatal("unknown arch should fail")
	}
}

func TestEvaluatePerfectPredictorZeroFailures(t *testing.T) {
	truth := truthModels()
	servers := CaseStudyServers()
	classes, err := SplitLoad(4000, CaseStudyShares())
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Allocate(classes, servers, truth, 1.0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := evaluate(plan, classes, servers, truth)
	if err != nil {
		t.Fatal(err)
	}
	if res.SLAFailurePct != 0 {
		t.Fatalf("perfect predictions should give 0%% failures, got %v", res.SLAFailurePct)
	}
	if res.ServerUsagePct <= 0 || res.ServerUsagePct > 100 {
		t.Fatalf("usage = %v", res.ServerUsagePct)
	}
}

func TestEvaluateOverpredictionCausesFailures(t *testing.T) {
	truth := truthModels()
	// Optimistic predictor: thinks servers hold 30% more than reality.
	optimistic := Biased{Base: truth, Y: 1.3}
	servers := CaseStudyServers()
	classes, err := SplitLoad(9000, CaseStudyShares())
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Allocate(classes, servers, optimistic, 1.0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := evaluate(plan, classes, servers, truth)
	if err != nil {
		t.Fatal(err)
	}
	if res.SLAFailurePct <= 0 {
		t.Fatal("overprediction at high load should cause failures")
	}
}

func TestUniformInaccuracyCompensatedBySlack(t *testing.T) {
	// §9.1: with uniform predictive error y, setting slack = y gives
	// 0% SLA failures below 100% usage and a % server usage that does
	// not depend on y.
	truth := truthModels()
	servers := CaseStudyServers()
	loads := []int{2000, 4000, 6000}
	var usages []float64
	for _, y := range []float64{1.0, 1.15, 1.3} {
		pred := Biased{Base: truth, Y: y}
		points, err := SweepLoad(CaseStudyShares(), servers, pred, truth, y, loads, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range points {
			if p.ServerUsagePct < 100 && p.SLAFailurePct > 0 {
				t.Fatalf("y=%v slack=y: %v%% failures at %d clients", y, p.SLAFailurePct, p.TotalClients)
			}
		}
		_, usage := AverageMetrics(points)
		usages = append(usages, usage)
	}
	for i := 1; i < len(usages); i++ {
		if math.Abs(usages[i]-usages[0]) > 3 {
			t.Fatalf("server usage should be ≈constant across y: %v", usages)
		}
	}
}

// The runtime optimisation re-places clients a server sheds on the real
// spare capacity of the other servers the plan uses, and on no server
// outside the plan. tablePred holds exactly its table value at goal
// 0.1, so the placement is computable by hand: the planner believes a
// and b hold 100 each and puts 180 clients on them as 100 + 80; a
// really holds 60 and sheds 40.
func TestRuntimeOptimizationReducesFailures(t *testing.T) {
	servers := []Server{
		{Name: "a", Arch: "A", Power: 1},
		{Name: "b", Arch: "B", Power: 1},
		{Name: "idle", Arch: "B", Power: 1},
	}
	classes := []Class{{Name: "c", GoalRT: 0.1, Clients: 180}}
	plan, err := Allocate(classes, servers, tablePred{"A": 100, "B": 100}, 1.0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Allocations) != 2 || plan.Allocations[0] != (Allocation{"a", 0, "c", 100}) || plan.Allocations[1] != (Allocation{"b", 1, "c", 80}) {
		t.Fatalf("plan = %+v, want a:100 b:80", plan.Allocations)
	}
	for _, tc := range []struct {
		realB    float64
		rejected int // of the 40 clients a sheds
	}{
		{realB: 130, rejected: 0},  // b has 50 spare: all 40 re-placed
		{realB: 100, rejected: 20}, // b has 20 spare; idle's 100 stay untouched
	} {
		res, err := evaluate(plan, classes, servers, tablePred{"A": 60, "B": tc.realB})
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Tracker.ClassRejected("c"); got != tc.rejected {
			t.Errorf("real B capacity %v: %d clients rejected, want %d", tc.realB, got, tc.rejected)
		}
		if got := res.Tracker.ClassServed("c"); got != 180-tc.rejected {
			t.Errorf("real B capacity %v: %d clients served, want %d", tc.realB, got, 180-tc.rejected)
		}
		if want := 100 * float64(tc.rejected) / 180; math.Abs(res.SLAFailurePct-want) > 1e-9 {
			t.Errorf("real B capacity %v: %v%% failures, want %v%%", tc.realB, res.SLAFailurePct, want)
		}
	}
}

func TestSweepSlackTradeOff(t *testing.T) {
	// Figure 7's shape: as slack drops from the zero-failure level,
	// average failures rise and average usage falls (saving rises).
	truth := truthModels()
	pred := Biased{Base: truth, Y: 1.1} // non-uniform stand-in: optimistic
	servers := CaseStudyServers()
	loads := []int{2000, 4000, 6000, 8000}
	slacks := []float64{1.1, 0.9, 0.7, 0.5}
	points, err := SweepSlack(CaseStudyShares(), servers, pred, truth, slacks, loads, Options{AllowDeflation: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(slacks) {
		t.Fatalf("got %d slack points", len(points))
	}
	for i := 1; i < len(points); i++ {
		if points[i].AvgFailPct < points[i-1].AvgFailPct-1e-9 {
			t.Fatalf("failures should not fall as slack drops: %+v", points)
		}
		if points[i].AvgUsageSavingPct < points[i-1].AvgUsageSavingPct-1e-9 {
			t.Fatalf("usage saving should not fall as slack drops: %+v", points)
		}
	}
	if points[0].AvgUsageSavingPct != 0 {
		t.Fatalf("saving at the anchor slack should be 0, got %v", points[0].AvgUsageSavingPct)
	}
}

func TestMinZeroFailureSlack(t *testing.T) {
	truth := truthModels()
	pred := Biased{Base: truth, Y: 1.2}
	servers := CaseStudyServers()
	loads := []int{2000, 4000, 6000}
	slacks := []float64{0.9, 1.0, 1.1, 1.2, 1.3}
	got, err := MinZeroFailureSlack(CaseStudyShares(), servers, pred, truth, slacks, loads, Options{AllowDeflation: true})
	if err != nil {
		t.Fatal(err)
	}
	// With uniform overprediction y=1.2, slack ≈ 1.2 compensates.
	if got < 1.1 || got > 1.3 {
		t.Fatalf("min zero-failure slack = %v, want ≈1.2", got)
	}
}

func TestBiasedPredictorConsistency(t *testing.T) {
	truth := truthModels()
	b := Biased{Base: truth, Y: 1.2}
	n, err := b.MaxClients("AppServF", 0.3)
	if err != nil {
		t.Fatal(err)
	}
	base, err := truth.MaxClients("AppServF", 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(n-1.2*base) > 1e-9 {
		t.Fatalf("biased capacity = %v, want %v", n, 1.2*base)
	}
	// Predict at the biased capacity returns ≈ the goal.
	rt, err := b.Predict("AppServF", n)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rt-0.3) > 0.01 {
		t.Fatalf("biased predict at capacity = %v, want ≈0.3", rt)
	}
	if _, err := (Biased{Base: truth, Y: 0}).Predict("AppServF", 10); err == nil {
		t.Fatal("zero bias should fail")
	}
	if _, err := truth.Predict("ghost", 1); err == nil {
		t.Fatal("unknown arch should fail")
	}
	if _, err := truth.MaxClients("ghost", 1); err == nil {
		t.Fatal("unknown arch should fail")
	}
}

func TestCheapestSlack(t *testing.T) {
	points := []SlackPoint{
		{Slack: 1.1, AvgFailPct: 0, AvgUsagePct: 53},
		{Slack: 1.0, AvgFailPct: 0, AvgUsagePct: 49},
		{Slack: 0.9, AvgFailPct: 1.3, AvgUsagePct: 44},
		{Slack: 0.5, AvgFailPct: 33, AvgUsagePct: 27},
	}
	// SLA failures costed heavily: the zero-failure lowest-usage slack
	// wins.
	best, cost, err := CheapestSlack(points, sla.CostModel{FailureCostPerPct: 100, UsageCostPerPct: 1})
	if err != nil {
		t.Fatal(err)
	}
	if best.Slack != 1.0 {
		t.Fatalf("best slack = %v, want 1.0", best.Slack)
	}
	if math.Abs(cost-49) > 1e-9 {
		t.Fatalf("cost = %v", cost)
	}
	// Usage costed heavily: aggressive slack wins despite failures.
	best, _, err = CheapestSlack(points, sla.CostModel{FailureCostPerPct: 0.1, UsageCostPerPct: 10})
	if err != nil {
		t.Fatal(err)
	}
	if best.Slack != 0.5 {
		t.Fatalf("usage-heavy best slack = %v, want 0.5", best.Slack)
	}
	if _, _, err := CheapestSlack(nil, sla.CostModel{FailureCostPerPct: 1}); err == nil {
		t.Fatal("empty points should fail")
	}
	if _, _, err := CheapestSlack(points, sla.CostModel{}); err == nil {
		t.Fatal("invalid cost model should fail")
	}
}

// stubPred is a hand-scripted predictor for capacity-shape tests:
// caps[arch][goal] is the predicted max client count.
type stubPred struct {
	caps map[string]map[float64]float64
}

func (p stubPred) Predict(arch string, n float64) (float64, error) { return 0, nil }

func (p stubPred) MaxClients(arch string, goal float64) (float64, error) {
	byGoal, ok := p.caps[arch]
	if !ok {
		return 0, fmt.Errorf("stub: unknown arch %q", arch)
	}
	c, ok := byGoal[goal]
	if !ok {
		return 0, fmt.Errorf("stub: unknown goal %v for %q", goal, arch)
	}
	return c, nil
}

func TestAllocateRejectsSubUnitySlack(t *testing.T) {
	// Regression: slack < 1 deflates the planned workload (slack 0
	// plans nothing and reports a perfect, empty plan). Allocate must
	// reject it unless the caller opts into deflation for a deliberate
	// §9 sweep.
	truth := truthModels()
	servers := CaseStudyServers()
	classes := []Class{{Name: "c", GoalRT: 0.600, Clients: 1000}}
	for _, slack := range []float64{0, 0.5, 0.9, 0.999} {
		if _, err := Allocate(classes, servers, truth, slack, Options{}); err == nil {
			t.Fatalf("slack %v should fail without AllowDeflation", slack)
		}
	}
	// Negative slack stays an error even with the opt-in.
	if _, err := Allocate(classes, servers, truth, -0.5, Options{AllowDeflation: true}); err == nil {
		t.Fatal("negative slack should fail even with AllowDeflation")
	}
	// The opt-in admits the sweep values; slack 0 is the documented
	// no-op plan.
	plan, err := Allocate(classes, servers, truth, 0, Options{AllowDeflation: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Allocations) != 0 || plan.UsagePct != 0 {
		t.Fatalf("slack 0 should plan nothing: %+v", plan)
	}
	if plan, err = Allocate(classes, servers, truth, 0.9, Options{AllowDeflation: true}); err != nil {
		t.Fatal(err)
	}
	if got := plan.plannedFor("c"); got != 900 {
		t.Fatalf("slack 0.9 planned %d, want 900", got)
	}
}

func TestAllocateRejectionStopsLowerPriorityClasses(t *testing.T) {
	// Regression for Algorithm 1's rejection semantics: once a class
	// cannot be fully placed, that class's remainder AND all
	// lower-priority (looser-goal) classes are rejected — later classes
	// may not squeeze in around a higher-priority class that did not
	// fit. The weak server here has room for the loose class but none
	// for the tight one, so the old behavior would have placed "loose"
	// on it after "tight" overflowed.
	pred := stubPred{caps: map[string]map[float64]float64{
		"strong": {0.150: 100, 0.600: 200},
		"weak":   {0.150: 0, 0.600: 50},
	}}
	servers := []Server{
		{Name: "S", Arch: "strong", Power: 100},
		{Name: "W", Arch: "weak", Power: 50},
	}
	classes := []Class{
		{Name: "tight", GoalRT: 0.150, Clients: 150},
		{Name: "loose", GoalRT: 0.600, Clients: 40},
	}
	plan, err := Allocate(classes, servers, pred, 1.0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.plannedFor("tight"); got != 100 {
		t.Fatalf("tight planned %d, want 100 (all of S)", got)
	}
	if plan.RejectedPlanned["tight"] != 50 {
		t.Fatalf("tight rejected %d, want 50", plan.RejectedPlanned["tight"])
	}
	if got := plan.plannedFor("loose"); got != 0 {
		t.Fatalf("loose planned %d, want 0: lower-priority workload is rejected once a higher class overflows", got)
	}
	if plan.RejectedPlanned["loose"] != 40 {
		t.Fatalf("loose rejected %d, want 40", plan.RejectedPlanned["loose"])
	}
	for _, a := range plan.Allocations {
		if a.Server == "W" {
			t.Fatalf("nothing may be placed on the weak server after the overflow: %+v", plan.Allocations)
		}
	}

	// Sanity: with a loose class that fits entirely, nothing is
	// rejected and the weak server is used.
	fitting := []Class{
		{Name: "tight", GoalRT: 0.150, Clients: 80},
		{Name: "loose", GoalRT: 0.600, Clients: 40},
	}
	plan, err = Allocate(fitting, servers, pred, 1.0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.RejectedPlanned) != 0 {
		t.Fatalf("fitting load should reject nothing: %+v", plan.RejectedPlanned)
	}
	if got := plan.plannedFor("loose"); got != 40 {
		t.Fatalf("loose planned %d, want 40", got)
	}
}

// A bias is a positive factor: y > 0 scales capacity by y and reads
// response times at the un-biased population; zero and negative biases
// are rejected by both questions, not only by Predict (MaxClients used
// to answer a zero or negative capacity).
func TestBiasedRejectsNonPositiveBias(t *testing.T) {
	truth := truthModels()
	const arch, goal = "AppServF", 0.3
	for _, y := range []float64{0, -0.5} {
		b := Biased{Base: truth, Y: y}
		if n, err := b.MaxClients(arch, goal); err == nil {
			t.Errorf("y=%v: MaxClients answered %v, want an error", y, n)
		}
		if rt, err := b.Predict(arch, 100); err == nil {
			t.Errorf("y=%v: Predict answered %v, want an error", y, rt)
		}
	}
	b := Biased{Base: truth, Y: 1.25}
	base, err := truth.MaxClients(arch, goal)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := b.MaxClients(arch, goal); err != nil || n != 1.25*base {
		t.Fatalf("y=1.25: MaxClients = %v, %v; want %v", n, err, 1.25*base)
	}
	want, _ := truth.Predict(arch, 100/1.25)
	if rt, err := b.Predict(arch, 100); err != nil || rt != want {
		t.Fatalf("y=1.25: Predict(100) = %v, %v; want the base at 80 clients, %v", rt, err, want)
	}
}
