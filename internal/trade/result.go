package trade

import (
	"fmt"
	"sort"

	"perfpred/internal/stats"
)

// ClassResult holds one service class's measurements over the
// measurement window.
type ClassResult struct {
	// Completed is the number of responses returned in the window.
	Completed int
	// MeanRT is the mean response time in seconds.
	MeanRT float64
	// RTStdDev is the response-time standard deviation in seconds.
	RTStdDev float64
	// Throughput is responses per second.
	Throughput float64
	// Samples are (possibly reservoir-sampled) response times for
	// percentile estimation, seconds.
	Samples []float64
}

// Percentile returns the class's p-th percentile response time
// (p in (0,100]) from the retained samples.
func (c ClassResult) Percentile(p float64) float64 {
	return stats.Percentile(c.Samples, p)
}

// ServerResult holds one application server's share of a tier
// measurement.
type ServerResult struct {
	// Name is the server architecture's name.
	Name string
	// Utilization is the server CPU's busy fraction.
	Utilization float64
	// MeanSlotsHeld is the time-average number of occupied threads.
	MeanSlotsHeld float64
	// Completed is the number of responses this server returned in the
	// window, and Throughput the corresponding rate.
	Completed  int
	Throughput float64
}

// Result is the outcome of one simulated measurement run.
type Result struct {
	// PerClass maps service-class name to its measurements.
	PerClass map[string]ClassResult
	// PerServer lists each application server's measurements, in tier
	// order (one entry for single-server runs).
	PerServer []ServerResult
	// PerOperation lists per-operation measurements when
	// DetailedOperations is enabled, sorted by operation name.
	PerOperation []OperationResult
	// MeanRT is the request-weighted mean response time across
	// classes, seconds.
	MeanRT float64
	// Throughput is total responses per second.
	Throughput float64
	// AppUtilization is the application server CPU's busy fraction.
	AppUtilization float64
	// DBUtilization is the database server CPU's busy fraction.
	DBUtilization float64
	// MeanAppSlotsHeld is the time-average number of occupied
	// application-server threads.
	MeanAppSlotsHeld float64
	// MeanAppQueue is the time-average number of requests waiting for
	// an application-server thread.
	MeanAppQueue float64
	// CacheMissRate is the observed session-cache miss fraction (0
	// when the cache variant is disabled).
	CacheMissRate float64
	// Duration is the measurement window in simulated seconds.
	Duration float64
	// EventsFired is the total number of simulation events executed
	// over the whole run (warm-up included; all shards in sharded
	// runs) — the denominator for events/sec benchmarking.
	EventsFired uint64
}

// OverallPercentile returns the p-th percentile response time across
// all classes' retained samples.
func (r *Result) OverallPercentile(p float64) float64 {
	var all []float64
	names := make([]string, 0, len(r.PerClass))
	for name := range r.PerClass {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		all = append(all, r.PerClass[name].Samples...)
	}
	return stats.Percentile(all, p)
}

// String summarises the run for logs and CLI output.
func (r *Result) String() string {
	return fmt.Sprintf("meanRT=%.4fs X=%.1f/s appU=%.2f dbU=%.2f", r.MeanRT, r.Throughput, r.AppUtilization, r.DBUtilization)
}
