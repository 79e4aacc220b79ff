// SLA tuning: the paper's §9 study as a walkthrough — run the
// prediction-enhanced resource manager over the 16-server pool, sweep
// the slack parameter, and pick the slack that balances SLA-failure
// cost against server-usage cost with an explicit cost model (the
// cost-function extension the paper's §9.1 closes with).
package main

import (
	"fmt"
	"log"

	"perfpred"
)

func main() {
	// The bench suite performs the full §9.1 calibration: historical
	// models (the "real system") and the hybrid model (the planner).
	suite := perfpred.NewSuite(5)
	pred, truth, servers, err := suite.RMSetup()
	check(err)

	shares := perfpred.RMCaseStudyShares()
	loads := []int{2000, 4000, 6000, 8000, 10000, 12000}

	// Figures 5-6 in miniature: one load sweep at slack 1.1.
	fmt.Println("load sweep at slack 1.1 (plan with hybrid, reality via historical):")
	fmt.Println("clients  fail%  usage%")
	points, err := perfpred.SweepLoad(shares, servers, pred, truth, 1.1, loads, perfpred.RMOptions{})
	check(err)
	for _, p := range points {
		fmt.Printf("%7d  %5.1f  %6.1f\n", p.TotalClients, p.SLAFailurePct, p.ServerUsagePct)
	}

	// Figure 7 in miniature: slack sweep with averaged cost metrics.
	var slacks []float64
	for v := 1.1; v >= 0.59; v -= 0.1 {
		slacks = append(slacks, v)
	}
	// Slack below 1 plans for less load than is offered; the resource
	// manager wants that opted into.
	slackPoints, err := perfpred.SweepSlack(shares, servers, pred, truth, slacks, loads, perfpred.RMOptions{AllowDeflation: true})
	check(err)
	fmt.Println("\nslack sweep:")
	fmt.Println("slack  avg-fail%  avg-saving%")
	for _, p := range slackPoints {
		fmt.Printf("%5.2f  %8.2f  %10.2f\n", p.Slack, p.AvgFailPct, p.AvgUsageSavingPct)
	}

	// Cost-model extension: map both metrics to money and choose the
	// cheapest slack. An SLA point costs 8× a usage point here — tune
	// to your contracts.
	cost := perfpred.SLACostModel{FailureCostPerPct: 8, UsageCostPerPct: 1}
	best, bestCost, err := perfpred.CheapestSlack(slackPoints, cost)
	check(err)
	fmt.Printf("\ncheapest slack under cost(fail)=8×cost(usage): %.2f (cost %.1f, fail %.2f%%, saving %.2f%%)\n",
		best.Slack, bestCost, best.AvgFailPct, best.AvgUsageSavingPct)
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
