// Quickstart: predict a new server architecture's response times three
// ways — historical, layered queuing and hybrid — and compare them
// against the simulated testbed, reproducing the core of the paper's
// figure 2 in under a minute.
package main

import (
	"fmt"
	"log"

	"perfpred"
)

func main() {
	opt := perfpred.MeasureOptions{Seed: 1, WarmUp: 30, Duration: 120}

	// Step 1 — benchmark the servers' request processing speeds (the
	// §2 supporting service). AppServS is the *new* architecture: the
	// methods may use only this one number for it.
	fmt.Println("benchmarking max throughputs...")
	xF, err := perfpred.MeasureMaxThroughput(perfpred.AppServF(), 0, opt)
	check(err)
	xVF, err := perfpred.MeasureMaxThroughput(perfpred.AppServVF(), 0, opt)
	check(err)
	xS, err := perfpred.MeasureMaxThroughput(perfpred.AppServS(), 0, opt)
	check(err)
	fmt.Printf("  AppServF=%.0f  AppServVF=%.0f  AppServS(new)=%.0f req/s\n", xF, xVF, xS)

	// Step 2 — historical method: four measured data points on each
	// established server and the shared gradient from the first one's
	// below-saturation throughputs; one call then runs the §4 chain —
	// relationship 1 per established server, relationship 2 across
	// them, the new server extrapolated from its benchmark.
	histories := []perfpred.ServerHistory{
		{Arch: perfpred.AppServF(), MaxThroughput: xF},
		{Arch: perfpred.AppServVF(), MaxThroughput: xVF},
		{Arch: perfpred.AppServS(), MaxThroughput: xS}, // new: the benchmark is all there is
	}
	var gradient float64
	for i := range histories[:2] {
		h := &histories[i]
		nStar := h.MaxThroughput / 0.14
		counts := []int{int(0.25 * nStar), int(0.55 * nStar), int(1.2 * nStar), int(1.6 * nStar)}
		curve, err := perfpred.MeasureCurve(h.Arch, counts, 0, opt)
		check(err)
		var tps []perfpred.ThroughputPoint
		for _, p := range curve {
			h.Points = append(h.Points, perfpred.DataPoint{Clients: float64(p.Clients), MeanRT: p.Res.MeanRT})
			if float64(p.Clients) < 0.66*nStar {
				tps = append(tps, perfpred.ThroughputPoint{Clients: float64(p.Clients), Throughput: p.Res.Throughput})
			}
		}
		if gradient == 0 {
			gradient, err = perfpred.CalibrateGradient(tps)
			check(err)
		}
	}
	models, _, err := perfpred.CalibrateSet(gradient, histories)
	check(err)
	histS := models["AppServS"]

	// Step 3 — hybrid method: one build call generates the layered
	// pseudo data and calibrates everything.
	hyb, err := perfpred.BuildHybrid(perfpred.HybridConfig{
		DB:      perfpred.CaseStudyDB(),
		Demands: perfpred.CaseStudyDemands(),
	}, perfpred.CaseStudyServers())
	check(err)
	fmt.Printf("hybrid start-up delay: %s (%d layered solves)\n", hyb.StartupDelay, hyb.Evaluations)

	// Step 4 — compare all three methods against fresh measurements on
	// the new server.
	fmt.Println("\nAppServS (new server), typical workload:")
	fmt.Println("clients  measured   historical  lqn        hybrid")
	nStar := histS.SaturationClients()
	for _, frac := range []float64{0.3, 0.6, 1.2, 1.6} {
		n := int(frac * nStar)
		meas, err := perfpred.Measure(perfpred.AppServS(), perfpred.TypicalWorkload(n), opt)
		check(err)
		lq, err := perfpred.PredictTrade(perfpred.AppServS(), perfpred.CaseStudyDemands(),
			perfpred.TypicalWorkload(n), perfpred.LQNOptions{})
		check(err)
		hy, err := hyb.Servers.Predict("AppServS", float64(n))
		check(err)
		fmt.Printf("%7d  %7.1fms  %9.1fms  %7.1fms  %7.1fms\n",
			n, meas.MeanRT*1000, histS.Predict(float64(n))*1000,
			lq.MeanResponseTime()*1000, hy*1000)
	}

	// Step 5 — the operational question a resource manager asks: how
	// many clients fit under a 300 ms SLA goal? The historical and
	// hybrid methods answer in closed form; the layered method must
	// search (§8.2).
	capacity, err := histS.MaxClients(0.300)
	check(err)
	fmt.Printf("\nAppServS capacity under a 300ms goal (historical, closed form): %.0f clients\n", capacity)
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
