package lqn

import (
	"math"
	"strings"
	"testing"

	"perfpred/internal/trade"
	"perfpred/internal/workload"
)

func TestCalibrateDemandUtilisationLaw(t *testing.T) {
	// X=200/s at 90% app CPU on a speed-1 server → 4.5 ms per request.
	d, err := CalibrateDemand(CalibrationRun{
		Throughput:        200,
		AppUtilization:    0.90,
		DBUtilization:     0.20,
		DBCallsPerRequest: 2,
		AppSpeed:          1,
		DBSpeed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.AppServerTime-0.0045) > 1e-12 {
		t.Fatalf("app time = %v, want 0.0045", d.AppServerTime)
	}
	// Per-request DB time 1 ms over 2 calls → 0.5 ms per call.
	if math.Abs(d.DBTimePerCall-0.0005) > 1e-12 {
		t.Fatalf("db per call = %v, want 0.0005", d.DBTimePerCall)
	}
}

func TestCalibrateDemandErrors(t *testing.T) {
	base := CalibrationRun{Throughput: 100, AppUtilization: 0.5, DBUtilization: 0.1, DBCallsPerRequest: 1, AppSpeed: 1, DBSpeed: 1}
	cases := []struct {
		mutate func(*CalibrationRun)
		want   string
	}{
		{func(r *CalibrationRun) { r.Throughput = 0 }, "positive throughput"},
		{func(r *CalibrationRun) { r.AppUtilization = 0 }, "app utilisation"},
		{func(r *CalibrationRun) { r.AppUtilization = 1.5 }, "app utilisation"},
		{func(r *CalibrationRun) { r.DBUtilization = -0.1 }, "db utilisation"},
		{func(r *CalibrationRun) { r.AppSpeed = 0 }, "positive speeds"},
	}
	for i, tc := range cases {
		run := base
		tc.mutate(&run)
		_, err := CalibrateDemand(run)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("case %d: err = %v, want mention of %q", i, err, tc.want)
		}
	}
}

// TestCalibrateFromSimulator closes the loop of §5: run the simulated
// testbed with a single request type, calibrate demands from the
// observed throughput and utilisations, and verify the recovered
// demands match the simulator's ground truth — our reproduction of
// Table 2.
func TestCalibrateFromSimulator(t *testing.T) {
	truth := workload.CaseStudyDemands()
	for _, rt := range []workload.RequestType{workload.Browse, workload.Buy} {
		class := workload.ServiceClass{
			Name:          "calib",
			Mix:           workload.Mix{rt: 1},
			ThinkTimeMean: workload.ThinkTimeMean,
		}
		// Load the server near (but below) saturation for a clean
		// utilisation-law signal.
		res, err := trade.Measure(workload.AppServF(),
			workload.Workload{{Class: class, Clients: 1100}},
			trade.MeasureOptions{Seed: 5, WarmUp: 40, Duration: 160})
		if err != nil {
			t.Fatal(err)
		}
		got, err := CalibrateDemand(CalibrationRun{
			Throughput:        res.Throughput,
			AppUtilization:    res.AppUtilization,
			DBUtilization:     res.DBUtilization,
			DBCallsPerRequest: truth[rt].DBCallsPerRequest,
			AppSpeed:          1,
			DBSpeed:           1,
		})
		if err != nil {
			t.Fatal(err)
		}
		want := truth[rt]
		if math.Abs(got.AppServerTime-want.AppServerTime)/want.AppServerTime > 0.05 {
			t.Fatalf("%s app demand calibrated %v, truth %v", rt, got.AppServerTime, want.AppServerTime)
		}
		if math.Abs(got.DBTimePerCall-want.DBTimePerCall)/want.DBTimePerCall > 0.10 {
			t.Fatalf("%s db demand calibrated %v, truth %v", rt, got.DBTimePerCall, want.DBTimePerCall)
		}
	}
}
