package perfpred

import (
	"bytes"
	"strings"
	"testing"
)

// TestFacadeQuickstart walks the README's quickstart through the public
// API only: calibrate all three methods, predict the new server, and
// run one resource-management planning cycle.
func TestFacadeQuickstart(t *testing.T) {
	opt := MeasureOptions{Seed: 77, WarmUp: 30, Duration: 100}

	// Historical method: calibrate AppServF from measured data points.
	xMax, err := MeasureMaxThroughput(AppServF(), 0, opt)
	if err != nil {
		t.Fatal(err)
	}
	nStar := xMax / 0.14
	curve, err := MeasureCurve(AppServF(), []int{int(0.3 * nStar), int(0.55 * nStar), int(1.2 * nStar), int(1.6 * nStar)}, 0, opt)
	if err != nil {
		t.Fatal(err)
	}
	var dps []DataPoint
	var tps []ThroughputPoint
	for _, p := range curve {
		dps = append(dps, DataPoint{Clients: float64(p.Clients), MeanRT: p.Res.MeanRT})
		if float64(p.Clients) < 0.66*nStar {
			tps = append(tps, ThroughputPoint{Clients: float64(p.Clients), Throughput: p.Res.Throughput})
		}
	}
	m, err := CalibrateGradient(tps)
	if err != nil {
		t.Fatal(err)
	}
	histF, err := CalibrateHistorical(AppServF(), xMax, m, dps)
	if err != nil {
		t.Fatal(err)
	}
	if rt := histF.Predict(800); rt <= 0 {
		t.Fatalf("historical prediction = %v", rt)
	}

	// Layered queuing method on the case-study demands.
	lq, err := PredictTrade(AppServF(), CaseStudyDemands(), TypicalWorkload(800), LQNOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if lq.MeanResponseTime() <= 0 {
		t.Fatal("LQN predicted non-positive RT")
	}

	// Hybrid method.
	hyb, err := BuildHybrid(HybridConfig{DB: CaseStudyDB(), Demands: CaseStudyDemands()}, CaseStudyServers())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hyb.Servers.Predict("AppServS", 400); err != nil {
		t.Fatal(err)
	}

	// Percentile extension.
	p90, err := PercentileFromMean(0.1, false, PaperLaplaceScale/1000, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if p90 <= 0.1 {
		t.Fatalf("p90 = %v", p90)
	}

	// Resource management with the hybrid predictor.
	classes, err := SplitLoad(3000, RMCaseStudyShares())
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Allocate(classes, RMCaseStudyServers(), hyb.Servers, 1.1, RMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Allocations) == 0 {
		t.Fatal("empty plan")
	}
	res, err := EvaluatePlan(plan, classes, RMCaseStudyServers(), hyb.Servers)
	if err != nil {
		t.Fatal(err)
	}
	if res.ServerUsagePct <= 0 {
		t.Fatalf("usage = %v", res.ServerUsagePct)
	}
}

func TestFacadeLQNModelJSON(t *testing.T) {
	model, err := NewTradeModel(AppServF(), CaseStudyDB(), CaseStudyDemands(), TypicalWorkload(200))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteLQNModel(&buf, model); err != nil {
		t.Fatal(err)
	}
	back, err := ReadLQNModel(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := SolveLQN(back, LQNOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalThroughput() <= 0 {
		t.Fatal("round-tripped model solved to zero throughput")
	}
}

func TestExperimentsList(t *testing.T) {
	names := Experiments()
	if len(names) < 14 {
		t.Fatalf("only %d experiments registered", len(names))
	}
	want := map[string]bool{"table1": true, "table2": true, "figure2": true, "figure7": true}
	for _, n := range names {
		delete(want, n)
	}
	if len(want) != 0 {
		t.Fatalf("missing experiments: %v", want)
	}
}
