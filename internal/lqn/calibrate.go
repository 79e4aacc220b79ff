package lqn

import (
	"errors"
	"fmt"

	"perfpred/internal/workload"
)

// CalibrationRun is the measurement §5 prescribes for one request
// type: take an established server offline, send a workload of only
// that type, and record throughput plus each server's CPU usage.
type CalibrationRun struct {
	// Throughput is the observed requests/second.
	Throughput float64
	// AppUtilization and DBUtilization are the observed CPU busy
	// fractions at each tier.
	AppUtilization float64
	DBUtilization  float64
	// DBCallsPerRequest is the known (instrumented) mean database
	// calls per request.
	DBCallsPerRequest float64
	// AppSpeed and DBSpeed are the servers' speed multipliers during
	// the run, so demands normalise to the speed-1.0 reference.
	AppSpeed float64
	DBSpeed  float64
}

// CalibrateDemand converts a calibration run into per-request-type
// demands via the utilisation law: demand = utilisation × speed /
// throughput. This is how the paper obtains Table 2 on AppServF.
func CalibrateDemand(run CalibrationRun) (workload.Demand, error) {
	if run.Throughput <= 0 {
		return workload.Demand{}, errors.New("lqn: calibration needs positive throughput")
	}
	if run.AppUtilization <= 0 || run.AppUtilization > 1.000001 {
		return workload.Demand{}, fmt.Errorf("lqn: app utilisation %v outside (0,1]", run.AppUtilization)
	}
	if run.DBUtilization < 0 || run.DBUtilization > 1.000001 {
		return workload.Demand{}, fmt.Errorf("lqn: db utilisation %v outside [0,1]", run.DBUtilization)
	}
	if run.AppSpeed <= 0 || run.DBSpeed <= 0 {
		return workload.Demand{}, errors.New("lqn: calibration needs positive speeds")
	}
	d := workload.Demand{
		AppServerTime:     run.AppUtilization * run.AppSpeed / run.Throughput,
		DBCallsPerRequest: run.DBCallsPerRequest,
	}
	if run.DBCallsPerRequest > 0 {
		perRequestDB := run.DBUtilization * run.DBSpeed / run.Throughput
		d.DBTimePerCall = perRequestDB / run.DBCallsPerRequest
	}
	if err := d.Validate(); err != nil {
		return workload.Demand{}, err
	}
	return d, nil
}
