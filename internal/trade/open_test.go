package trade

import (
	"math"
	"testing"

	"perfpred/internal/lqn"
	"perfpred/internal/workload"
)

func openConfig(rate float64, clients int) Config {
	load := workload.Workload{}
	if rate > 0 {
		load = append(load, workload.Population{Class: openClass(), ArrivalRate: rate})
	}
	if clients > 0 {
		load = append(load, workload.Population{Class: workload.BrowseClass(0), Clients: clients})
	}
	return Config{
		Server:   workload.AppServF(),
		DB:       workload.CaseStudyDB(),
		Demands:  workload.CaseStudyDemands(),
		Load:     load,
		Seed:     19,
		WarmUp:   40,
		Duration: 160,
	}
}

func openClass() workload.ServiceClass {
	return workload.ServiceClass{
		Name: "stream",
		Mix:  workload.Mix{workload.Browse: 1},
		// Think time is irrelevant for open streams but must validate.
		ThinkTimeMean: 0,
	}
}

func TestOpenWorkloadValidation(t *testing.T) {
	bad := workload.Workload{{Class: workload.BrowseClass(0), Clients: 5, ArrivalRate: 10}}
	if err := bad.Validate(); err == nil {
		t.Fatal("open+closed population should fail")
	}
	bad = workload.Workload{{Class: workload.BrowseClass(0), ArrivalRate: -1}}
	if err := bad.Validate(); err == nil {
		t.Fatal("negative rate should fail")
	}
	if err := workload.OpenWorkload(openClass(), 50).Validate(); err != nil {
		t.Fatal(err)
	}
	empty := Config{
		Server: workload.AppServF(), DB: workload.CaseStudyDB(),
		Demands: workload.CaseStudyDemands(),
		Load:    workload.Workload{{Class: workload.BrowseClass(0)}},
		WarmUp:  1, Duration: 1,
	}
	if err := empty.validate(); err == nil {
		t.Fatal("no clients and no streams should fail")
	}
}

func TestOpenStreamThroughputMatchesRate(t *testing.T) {
	res, err := Run(openConfig(80, 0))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Throughput-80)/80 > 0.05 {
		t.Fatalf("open throughput = %v, want ≈80 (the arrival rate)", res.Throughput)
	}
	// At ρ = 80/186 ≈ 0.43 the mean RT is noticeably above the bare
	// demand but far below saturation levels.
	d := workload.CaseStudyDemands()[workload.Browse]
	if res.MeanRT < d.AppServerTime || res.MeanRT > 10*d.AppServerTime {
		t.Fatalf("open mean RT = %v", res.MeanRT)
	}
}

func TestOpenStreamMatchesLQNPrediction(t *testing.T) {
	// The mixed-network LQN solver should predict the simulator's open
	// response times: ρ = 120/186 ≈ 0.65, still stable.
	res, err := Run(openConfig(120, 0))
	if err != nil {
		t.Fatal(err)
	}
	pred, err := lqn.PredictTrade(workload.AppServF(), workload.CaseStudyDemands(),
		workload.OpenWorkload(openClass(), 120), lqn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := pred.Classes["stream"]
	if p.Throughput != 120 {
		t.Fatalf("LQN open throughput = %v", p.Throughput)
	}
	if math.Abs(p.ResponseTime-res.MeanRT)/res.MeanRT > 0.25 {
		t.Fatalf("LQN open RT %v vs measured %v", p.ResponseTime, res.MeanRT)
	}
}

func TestMixedOpenClosedWorkload(t *testing.T) {
	// Open load steals capacity from the closed clients: their RT rises
	// relative to a closed-only run.
	mixed, err := Run(openConfig(90, 600))
	if err != nil {
		t.Fatal(err)
	}
	closedOnly, err := Run(openConfig(0, 600))
	if err != nil {
		t.Fatal(err)
	}
	mixedBrowse := mixed.PerClass["browse"]
	baseBrowse := closedOnly.PerClass["browse"]
	if mixedBrowse.MeanRT <= baseBrowse.MeanRT {
		t.Fatalf("open load should slow closed clients: %v vs %v",
			mixedBrowse.MeanRT, baseBrowse.MeanRT)
	}
	if stream, ok := mixed.PerClass["stream"]; !ok || stream.Completed == 0 {
		t.Fatal("open stream produced no completions")
	}
	// LQN agrees on the direction for the closed class.
	pred, err := lqn.PredictTrade(workload.AppServF(), workload.CaseStudyDemands(),
		workload.Workload{
			{Class: openClass(), ArrivalRate: 90},
			{Class: workload.BrowseClass(0), Clients: 600},
		}, lqn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	base, err := lqn.PredictTrade(workload.AppServF(), workload.CaseStudyDemands(),
		workload.TypicalWorkload(600), lqn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if pred.Classes["browse"].ResponseTime <= base.Classes["browse"].ResponseTime {
		t.Fatal("LQN should predict open load slowing closed clients")
	}
}
