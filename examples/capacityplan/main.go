// Capacity planning: the paper's §2 motivation — decide whether a
// proposed server upgrade meets SLA goals *before* buying hardware.
// The new architecture exists only as a max-throughput benchmark; the
// example sizes a browse/buy workload across candidate fleets and
// compares upgrade options, exercising relationship 2 and 3 and the
// max-clients inversion.
package main

import (
	"fmt"
	"log"

	"perfpred"
)

func main() {
	opt := perfpred.MeasureOptions{Seed: 9, WarmUp: 30, Duration: 120}

	// Gather the established servers' history (as a production system
	// would already hold from its monitoring).
	fmt.Println("calibrating established servers from history...")
	var histories []perfpred.ServerHistory
	var gradient float64
	for _, arch := range []perfpred.ServerArch{perfpred.AppServF(), perfpred.AppServVF()} {
		xMax, err := perfpred.MeasureMaxThroughput(arch, 0, opt)
		check(err)
		nStar := xMax / 0.14
		counts := []int{int(0.3 * nStar), int(0.55 * nStar), int(1.2 * nStar), int(1.5 * nStar)}
		curve, err := perfpred.MeasureCurve(arch, counts, 0, opt)
		check(err)
		h := perfpred.ServerHistory{Arch: arch, MaxThroughput: xMax}
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
		histories = append(histories, h)
	}

	// The upgrade candidate arrives as a one-number benchmark; the §4
	// chain extrapolates its model through relationship 2.
	xS, err := perfpred.MeasureMaxThroughput(perfpred.AppServS(), 0, opt)
	check(err)
	histories = append(histories, perfpred.ServerHistory{Arch: perfpred.AppServS(), MaxThroughput: xS})
	models, rel2, err := perfpred.CalibrateSet(gradient, histories)
	check(err)
	fmt.Printf("candidate AppServS benchmarked at %.0f req/s\n\n", xS)

	// Heterogeneous workload: relationship 3 re-anchors max throughput
	// for a 10% buy mix (generated with the layered model, as in §4.3).
	rel3, _, err := perfpred.BuildRelationship3FromLQN(perfpred.HybridConfig{
		DB:      perfpred.CaseStudyDB(),
		Demands: perfpred.CaseStudyDemands(),
	}, perfpred.AppServF(), []float64{0, 25})
	check(err)

	const buyPct = 10.0
	fmt.Printf("SLA capacity per server at a %.0f%% buy mix:\n", buyPct)
	fmt.Println("server     goal(ms)  capacity(clients)")
	for _, name := range []string{"AppServS", "AppServF", "AppServVF"} {
		base := models[name]
		mixed, err := rel3.ModelAtBuyPct(rel2, base, buyPct)
		check(err)
		for _, goal := range []float64{0.150, 0.300, 0.600} {
			n, err := mixed.MaxClients(goal)
			check(err)
			fmt.Printf("%-9s  %7.0f  %17.0f\n", name, goal*1000, n)
		}
	}

	// Fleet sizing: how many AppServS boxes replace one AppServVF for
	// a 10,000-client browse workload under a 300 ms goal?
	fmt.Println("\nfleet options for 10,000 clients under 300ms:")
	for _, name := range []string{"AppServS", "AppServF", "AppServVF"} {
		capacity, err := models[name].MaxClients(0.300)
		check(err)
		nServers := int(10000/capacity) + 1
		fmt.Printf("  %-9s: %3d servers (%.0f clients each)\n", name, nServers, capacity)
	}
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
