// Cluster: the paper's §2 system model end to end — a heterogeneous
// tier of application servers sharing one database server (one FIFO
// queue per app server at the database), driven through three
// workload-manager routing policies, plus an open constant-rate
// stream mixed into the closed client load (§8.1).
package main

import (
	"fmt"
	"log"

	"perfpred"
)

func main() {
	tier := []perfpred.ServerArch{
		perfpred.AppServS(),
		perfpred.AppServF(),
		perfpred.AppServVF(),
	}
	fmt.Println("application tier: AppServS + AppServF + AppServVF (shared DB)")
	fmt.Println("capacity if perfectly divided: 86+186+320 = 592 req/s")

	// Part 1 — routing policy shoot-out near tier saturation.
	fmt.Println("\nrouting policies at 3600 clients (typical workload):")
	fmt.Println("policy      meanRT      tierX    U(S)  U(F)  U(VF)")
	for _, routing := range []perfpred.RoutingPolicy{
		perfpred.RouteSticky, perfpred.RouteRoundRobin, perfpred.RouteLeastBusy,
	} {
		cfg := perfpred.SimConfig{
			Servers:  tier,
			Routing:  routing,
			DB:       perfpred.CaseStudyDB(),
			Demands:  perfpred.CaseStudyDemands(),
			Load:     perfpred.TypicalWorkload(3600),
			Seed:     7,
			WarmUp:   30,
			Duration: 120,
		}
		res, err := perfpred.RunSim(cfg)
		check(err)
		fmt.Printf("%-10s  %7.1fms  %6.1f/s  %5.2f %5.2f %5.2f\n",
			routing, res.MeanRT*1000, res.Throughput,
			res.PerServer[0].Utilization, res.PerServer[1].Utilization, res.PerServer[2].Utilization)
	}

	// Part 2 — mixed open + closed workload on the tier: a constant
	// 150 req/s stream (think: an API integration) alongside 2000
	// interactive clients.
	stream := perfpred.ServiceClass{
		Name: "api-stream",
		Mix:  perfpred.Mix{perfpred.Browse: 1},
	}
	cfg := perfpred.SimConfig{
		Servers: tier,
		Routing: perfpred.RouteLeastBusy,
		DB:      perfpred.CaseStudyDB(),
		Demands: perfpred.CaseStudyDemands(),
		Load: perfpred.Workload{
			{Class: perfpred.BrowseClass(0), Clients: 2000},
			{Class: stream, ArrivalRate: 150},
		},
		Seed:     7,
		WarmUp:   30,
		Duration: 120,
	}
	res, err := perfpred.RunSim(cfg)
	check(err)
	fmt.Println("\nmixed workload (2000 closed clients + 150 req/s open stream, least-busy):")
	for _, name := range []string{"api-stream", "browse"} { // not the map's order, which varies run to run
		c := res.PerClass[name]
		fmt.Printf("  %-10s  RT %7.1fms  X %6.1f/s  (n=%d)\n", name, c.MeanRT*1000, c.Throughput, c.Completed)
	}
	fmt.Printf("  db utilisation %.2f\n", res.DBUtilization)

	// Part 3 — the layered model predicts the single-server mixed case
	// analytically; compare on AppServF alone.
	single := perfpred.Workload{
		{Class: perfpred.BrowseClass(0), Clients: 700},
		{Class: stream, ArrivalRate: 60},
	}
	meas, err := perfpred.RunSim(perfpred.SimConfig{
		Server: perfpred.AppServF(), DB: perfpred.CaseStudyDB(),
		Demands: perfpred.CaseStudyDemands(), Load: single,
		Seed: 7, WarmUp: 30, Duration: 120,
	})
	check(err)
	pred, err := perfpred.PredictTrade(perfpred.AppServF(), perfpred.CaseStudyDemands(), single, perfpred.LQNOptions{})
	check(err)
	fmt.Println("\nmixed open+closed on AppServF: measured vs layered prediction")
	fmt.Printf("  closed browse: %7.1fms measured, %7.1fms predicted\n",
		meas.PerClass["browse"].MeanRT*1000, pred.Classes["browse"].ResponseTime*1000)
	fmt.Printf("  open stream:   %7.1fms measured, %7.1fms predicted\n",
		meas.PerClass["api-stream"].MeanRT*1000, pred.Classes["api-stream"].ResponseTime*1000)
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
