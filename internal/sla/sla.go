// Package sla defines service level agreement goals and the cost
// accounting the paper's resource-management study (§9) balances: the
// penalty of SLA failures against the cost of server usage.
package sla

import "errors"

// Goal is a response-time requirement for a service class: the
// response time the caller measures (a mean, or a percentile for a
// §7.1 percentile goal) must not exceed MaxRT.
type Goal struct {
	// MaxRT is the response-time bound in seconds.
	MaxRT float64
}

// validate reports the first structural problem with the goal.
func (g Goal) validate() error {
	if g.MaxRT <= 0 {
		return errors.New("sla: goal needs positive max response time")
	}
	return nil
}

// met reports whether an observed response time satisfies the goal.
func (g Goal) met(rt float64) bool { return rt <= g.MaxRT }

// CostModel maps the study's two cost metrics onto a single monetary
// scale — the cost-function extension §9.1 closes with ("the y-axis of
// figure 7 could become a single cost axis").
type CostModel struct {
	// FailureCostPerPct is the cost of one percentage point of average
	// SLA failures.
	FailureCostPerPct float64
	// UsageCostPerPct is the cost of one percentage point of average
	// server usage.
	UsageCostPerPct float64
}

// Validate reports the first structural problem with the cost model.
func (c CostModel) Validate() error {
	if c.FailureCostPerPct < 0 || c.UsageCostPerPct < 0 {
		return errors.New("sla: costs must be non-negative")
	}
	if c.FailureCostPerPct == 0 && c.UsageCostPerPct == 0 {
		return errors.New("sla: cost model is all zeros")
	}
	return nil
}

// Cost combines average SLA-failure and server-usage percentages into
// a single cost figure.
func (c CostModel) Cost(avgFailPct, avgUsagePct float64) float64 {
	return c.FailureCostPerPct*avgFailPct + c.UsageCostPerPct*avgUsagePct
}

// Tracker accumulates served/rejected client counts per service class
// and produces the study's %-SLA-failure metric.
type Tracker struct {
	served   map[string]int
	rejected map[string]int
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker {
	return &Tracker{served: make(map[string]int), rejected: make(map[string]int)}
}

// Serve records n clients of the class as served within goals.
func (t *Tracker) Serve(class string, n int) { t.served[class] += n }

// Reject records n clients of the class as rejected (SLA failures).
func (t *Tracker) Reject(class string, n int) { t.rejected[class] += n }

// FailurePct returns the percentage of all clients rejected.
func (t *Tracker) FailurePct() float64 {
	var s, r int
	for _, n := range t.served {
		s += n
	}
	for _, n := range t.rejected {
		r += n
	}
	if s+r == 0 {
		return 0
	}
	return 100 * float64(r) / float64(s+r)
}

// ClassServed returns the number of the class's clients served.
func (t *Tracker) ClassServed(class string) int { return t.served[class] }

// ClassRejected returns the number of the class's clients rejected.
func (t *Tracker) ClassRejected(class string) int { return t.rejected[class] }

// ClassFailurePct returns the percentage of the class's clients
// rejected.
func (t *Tracker) ClassFailurePct(class string) float64 {
	s, r := t.served[class], t.rejected[class]
	if s+r == 0 {
		return 0
	}
	return 100 * float64(r) / float64(s+r)
}

// MaxClients returns the largest n in [1, limit] for which meets(n)
// holds, or 0 when even n = 1 fails — the one capacity search shared by
// every predictor family that cannot invert its model in closed form
// (§8.2: "the number of clients can only be an input so it is necessary
// to search"). meets must be monotone: true up to a threshold, false
// beyond. The search probes 1, 2, 4, … until the predicate breaks,
// clamping the doubling to limit and probing the limit itself — it is
// an answer only once verified — then bisects the final interval. The
// probe sequence is a pure function of the predicate's answers, so a
// deterministic predicate yields a deterministic capacity and count.
func MaxClients(limit int, meets func(n int) (bool, error)) (int, error) {
	if limit < 1 {
		return 0, nil
	}
	lo, hi := 0, 1 // lo meets (0: nothing verified yet); hi is the next probe
	for {
		ok, err := meets(hi)
		if err != nil {
			return 0, err
		}
		if !ok {
			break
		}
		if hi == limit {
			return limit, nil
		}
		lo = hi
		hi *= 2
		hi = min(hi, limit)
	}
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		ok, err := meets(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// MaxClients returns the largest integer population in [1, limit]
// whose response time rtAt(n) meets the goal (0 when one client already
// misses it), by the shared MaxClients search.
func (g Goal) MaxClients(limit int, rtAt func(n float64) (float64, error)) (int, error) {
	if err := g.validate(); err != nil {
		return 0, err
	}
	return MaxClients(limit, func(n int) (bool, error) {
		rt, err := rtAt(float64(n))
		return g.met(rt), err
	})
}
