// Package workload defines the case-study model of the paper's §3:
// request types with per-type service demands, service classes built
// from operation mixes with closed client populations and exponential
// think times, and the heterogeneous application-server architectures
// whose response times the prediction methods must forecast.
//
// Amounts of workload follow the paper's convention: "number of
// clients and the mean client think-time" rather than an open arrival
// rate, because a client only issues its next request after receiving
// the previous response, so the request rate self-limits as servers
// load up (§3.1).
package workload

import (
	"errors"
	"fmt"
)

// RequestType identifies a class of requests expected to exhibit
// similar performance characteristics (§5): the operations called and
// the data touched.
type RequestType string

// The two request types of the Trade case study.
const (
	Browse RequestType = "browse"
	Buy    RequestType = "buy"
)

// Demand gives a request type's mean resource consumption on the
// reference application-server architecture. Times are in seconds;
// layered queuing and the simulator both consume these numbers, and
// calibration (paper §5) estimates them from throughput and CPU-usage
// measurements.
type Demand struct {
	// AppServerTime is the mean CPU time per request at the
	// application server, on the reference architecture.
	AppServerTime float64
	// DBTimePerCall is the mean CPU/disk time per database call at the
	// database server.
	DBTimePerCall float64
	// DBCallsPerRequest is the mean number of database calls one
	// application-server request makes (browse: 1.14, buy: 2 in §5.1).
	DBCallsPerRequest float64
	// DBLatencyPerCall is pure per-call latency (disk seeks, network
	// round trips) the calling thread waits out without consuming any
	// modelled processor — an infinite-server delay. 0 for the
	// CPU-bound case study.
	DBLatencyPerCall float64
}

// Validate reports the first structural problem with the demand.
func (d Demand) Validate() error {
	switch {
	case d.AppServerTime <= 0:
		return errors.New("workload: app server time must be positive")
	case d.DBTimePerCall < 0:
		return errors.New("workload: db time per call must be non-negative")
	case d.DBCallsPerRequest < 0:
		return errors.New("workload: db calls per request must be non-negative")
	case d.DBLatencyPerCall < 0:
		return errors.New("workload: db latency per call must be non-negative")
	}
	return nil
}

// TotalDBTime is the mean database time consumed per application
// request: calls × time-per-call.
func (d Demand) TotalDBTime() float64 { return d.DBCallsPerRequest * d.DBTimePerCall }

// Mix is the expected fraction of each request type in a service
// class's traffic. Fractions must be positive and sum to 1.
type Mix map[RequestType]float64

// validate checks the mix sums to 1 (within tolerance) with no
// negative entries.
func (m Mix) validate() error {
	if len(m) == 0 {
		return errors.New("workload: empty mix")
	}
	var sum float64
	for rt, f := range m {
		if f < 0 {
			return fmt.Errorf("workload: negative fraction %v for %q", f, rt)
		}
		sum += f
	}
	if sum < 0.999 || sum > 1.001 {
		return fmt.Errorf("workload: mix fractions sum to %v, want 1", sum)
	}
	return nil
}

// Fraction returns the mix fraction for rt (0 when absent).
func (m Mix) Fraction(rt RequestType) float64 { return m[rt] }

// ServiceClass is a group of clients sharing a workload mix, think
// time and response-time requirement (§2–3). The SLA goal lives here
// because the resource manager sorts and admits workload by it.
type ServiceClass struct {
	Name string
	Mix  Mix
	// ThinkTimeMean is the mean of the exponentially distributed client
	// think time, seconds (7 s in the case study).
	ThinkTimeMean float64
	// GoalRT is the SLA response-time goal in seconds (0 means none).
	GoalRT float64
	// GoalPercentile is the fraction of requests that must meet GoalRT
	// when the SLA is percentile-based (0 means the goal is on the
	// mean).
	GoalPercentile float64
}

// validate reports the first structural problem with the class.
func (c ServiceClass) validate() error {
	if c.Name == "" {
		return errors.New("workload: service class needs a name")
	}
	if c.ThinkTimeMean < 0 {
		return fmt.Errorf("workload: class %q has negative think time", c.Name)
	}
	if c.GoalPercentile < 0 || c.GoalPercentile >= 1 {
		if c.GoalPercentile != 0 {
			return fmt.Errorf("workload: class %q percentile %v outside [0,1)", c.Name, c.GoalPercentile)
		}
	}
	return c.Mix.validate()
}

// Population is an amount of workload for one service class: either a
// closed client population (Clients > 0) or an open request stream at
// a fixed Poisson rate (ArrivalRate > 0) — the "clients sending
// requests at a constant rate" variation of §8.1. A population cannot
// be both.
type Population struct {
	Class   ServiceClass
	Clients int
	// ArrivalRate is the open arrival rate in requests/second; 0 means
	// the population is closed.
	ArrivalRate float64
}

// Open reports whether the population is an open arrival stream.
func (p Population) Open() bool { return p.ArrivalRate > 0 }

// Workload is the full offered load: client populations across service
// classes. The paper represents system load as the total number of
// clients plus the percentage in each class (§3.1).
type Workload []Population

// TotalClients sums the client counts across classes.
func (w Workload) TotalClients() int {
	total := 0
	for _, p := range w {
		total += p.Clients
	}
	return total
}

// Validate checks every population.
func (w Workload) Validate() error {
	for _, p := range w {
		if p.Clients < 0 {
			return fmt.Errorf("workload: class %q has negative clients", p.Class.Name)
		}
		if p.ArrivalRate < 0 {
			return fmt.Errorf("workload: class %q has negative arrival rate", p.Class.Name)
		}
		if p.Open() && p.Clients > 0 {
			return fmt.Errorf("workload: class %q is both open (rate %v) and closed (%d clients)", p.Class.Name, p.ArrivalRate, p.Clients)
		}
		if err := p.Class.validate(); err != nil {
			return err
		}
	}
	return nil
}

// OpenWorkload returns a workload consisting of a single open request
// stream of the given class at rate requests/second.
func OpenWorkload(class ServiceClass, rate float64) Workload {
	return Workload{{Class: class, ArrivalRate: rate}}
}
