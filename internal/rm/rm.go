// Package rm implements the paper's prediction-enhanced resource
// management algorithm and the §9 tuning study. Algorithm 1 assigns
// application servers to service classes, greedily choosing the server
// the performance model predicts can hold the most clients of the
// current class (with an exception for the class's last server, which
// takes the smallest server that still fits the remainder). A 'slack'
// multiplier inflates the planned workload to compensate for
// predictive inaccuracy, trading % SLA failures against % server
// usage.
package rm

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"perfpred/internal/obs"
)

// Predictor is the model interface the resource manager consumes; the
// historical, hybrid and layered methods all provide it (the layered
// method via a client-count search, §8.2).
type Predictor interface {
	// Predict returns the predicted mean response time (seconds) for
	// the architecture at n clients.
	Predict(arch string, n float64) (float64, error)
	// MaxClients returns the predicted largest client population the
	// architecture can hold with mean response time within goalRT.
	MaxClients(arch string, goalRT float64) (float64, error)
}

// Class is one service class of workload to place: a client count and
// the SLA response-time goal (seconds) those clients bought.
type Class struct {
	Name    string
	GoalRT  float64
	Clients int
}

// Server is one application server available to the resource manager.
type Server struct {
	// Name identifies the server instance ("S3", "F1", ...).
	Name string
	// Arch is the architecture key the Predictor understands
	// ("AppServS", ...).
	Arch string
	// Power is the server's processing power: its max throughput under
	// the typical workload (§9.1's % server usage denominators).
	Power float64
}

// Allocation is a planned placement of clients on a server.
type Allocation struct {
	Server string
	// ServerIndex is Server's position in the servers Allocate was
	// given.
	ServerIndex int
	Class       string
	// Clients is the planned (slack-inflated) client count.
	Clients int
}

// Plan is the output of Algorithm 1.
type Plan struct {
	// Allocations lists planned placements in allocation order.
	Allocations []Allocation
	// RejectedPlanned maps class name to planned clients that found no
	// server (lower-priority classes reject first).
	RejectedPlanned map[string]int
	// Slack is the multiplier the plan was computed with.
	Slack float64
	// UsagePct is the planned % server usage: the power share of
	// servers with at least one planned client.
	UsagePct float64
}

// plannedFor returns the total planned clients for a class.
func (p *Plan) plannedFor(class string) int {
	total := 0
	for _, a := range p.Allocations {
		if a.Class == class {
			total += a.Clients
		}
	}
	return total
}

// Options tunes Algorithm 1.
type Options struct {
	// DisableLastServerRule drops the paper's exception of taking the
	// smallest feasible server for a class's final allocation — the
	// ablation knob.
	DisableLastServerRule bool

	// AllowDeflation permits slack multipliers below 1. The paper's
	// slack compensates for predictive inaccuracy by *inflating* the
	// planned workload, so sub-unity values silently under-plan (slack 0
	// plans nothing at all and reports perfect usage with no
	// rejections). Allocate rejects them unless this is set — the §9
	// tuning study sets it to sweep slack through and below 1
	// deliberately, mapping the full failure/usage trade-off curve.
	AllowDeflation bool
}

// The resource manager's planning and evaluation work: Algorithm 1
// runs, placements made, planned rejections, runtime evaluations, and
// how often the performance model is consulted (the §8.5
// prediction-delay driver).
var (
	rmAllocateCalls     = obs.DeclareCounter("rm_allocate_calls")     // Allocate (Algorithm 1) runs
	rmAllocations       = obs.DeclareCounter("rm_allocations")        // placements appended to plans
	rmPlannedRejections = obs.DeclareCounter("rm_planned_rejections") // planned clients rejected from plans
	rmEvaluateCalls     = obs.DeclareCounter("rm_evaluate_calls")     // Evaluate (runtime playout) runs
	rmPredictorCalls    = obs.DeclareCounter("rm_predictor_calls")    // Predictor.MaxClients consultations
)

// Allocate runs Algorithm 1: service classes sorted by increasing
// response-time goal, clients (inflated by slack) placed greedily on
// the server predicted to hold the most clients of the current class,
// with the last-server exception. A server's available capacity for a
// class is bounded by the tightest goal already placed on it, so
// adding clients never breaks an earlier class's SLA in the model's
// eyes.
func Allocate(classes []Class, servers []Server, pred Predictor, slack float64, opts Options) (*Plan, error) {
	if len(classes) == 0 || len(servers) == 0 {
		return nil, errors.New("rm: need classes and servers")
	}
	if slack < 0 {
		return nil, fmt.Errorf("rm: negative slack %v", slack)
	}
	if slack < 1 && !opts.AllowDeflation {
		return nil, fmt.Errorf("rm: slack %v < 1 deflates the planned workload instead of inflating it "+
			"(slack compensates for predictive inaccuracy by planning extra clients); "+
			"set Options.AllowDeflation for a deliberate sub-unity sweep", slack)
	}
	for _, c := range classes {
		if c.GoalRT <= 0 {
			return nil, fmt.Errorf("rm: class %q needs positive goal", c.Name)
		}
		if c.Clients < 0 {
			return nil, fmt.Errorf("rm: class %q has negative clients", c.Name)
		}
	}

	// Line 1: sort by increasing response-time goal (priority order).
	sorted := make([]Class, len(classes))
	copy(sorted, classes)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].GoalRT < sorted[j].GoalRT })

	type serverState struct {
		Server
		index     int     // position in servers
		allocated int     // planned clients across classes
		minGoal   float64 // tightest goal placed (0 = empty)
	}
	state := make([]*serverState, len(servers))
	for i, s := range servers {
		if s.Power <= 0 {
			return nil, fmt.Errorf("rm: server %q needs positive power", s.Name)
		}
		state[i] = &serverState{Server: s, index: i}
	}

	plan := &Plan{RejectedPlanned: make(map[string]int), Slack: slack}
	rmAllocateCalls.Inc()

	// capacity returns how many more clients of a class with goal g
	// the server can take per the model.
	capacity := func(s *serverState, g float64) (int, error) {
		goal := g
		if s.minGoal > 0 && s.minGoal < goal {
			goal = s.minGoal
		}
		rmPredictorCalls.Inc()
		maxN, err := pred.MaxClients(s.Arch, goal)
		if err != nil {
			return 0, err
		}
		c := int(math.Floor(maxN)) - s.allocated
		if c < 0 {
			c = 0
		}
		return c, nil
	}

placement:
	for ci, class := range sorted {
		remaining := int(math.Ceil(float64(class.Clients) * slack))
		for remaining > 0 {
			// Line 6: greedy server selection.
			var best *serverState
			bestCap := 0
			var lastFit *serverState
			lastFitCap := math.MaxInt
			for _, s := range state {
				c, err := capacity(s, class.GoalRT)
				if err != nil {
					return nil, err
				}
				if c <= 0 {
					continue
				}
				if c > bestCap {
					best, bestCap = s, c
				}
				if c >= remaining && c < lastFitCap {
					lastFit, lastFitCap = s, c
				}
			}
			if best == nil {
				// No capacity anywhere: per Algorithm 1, this and all
				// lower-priority (looser-goal) workload is rejected from
				// the plan — later classes are not allowed to squeeze in
				// around a higher-priority class that did not fit.
				plan.RejectedPlanned[class.Name] += remaining
				rmPlannedRejections.Add(uint64(remaining))
				for _, later := range sorted[ci+1:] {
					if n := int(math.Ceil(float64(later.Clients) * slack)); n > 0 {
						plan.RejectedPlanned[later.Name] += n
						rmPlannedRejections.Add(uint64(n))
					}
				}
				break placement
			}
			chosen, chosenCap := best, bestCap
			if !opts.DisableLastServerRule && lastFit != nil {
				// Exception: the last server a class needs is the one
				// that can take the smallest number of clients while
				// still fitting the remainder.
				chosen, chosenCap = lastFit, lastFitCap
			}
			take := chosenCap
			if take > remaining {
				take = remaining
			}
			plan.Allocations = append(plan.Allocations, Allocation{
				Server: chosen.Name, ServerIndex: chosen.index, Class: class.Name, Clients: take,
			})
			rmAllocations.Inc()
			chosen.allocated += take
			if chosen.minGoal == 0 || class.GoalRT < chosen.minGoal {
				chosen.minGoal = class.GoalRT
			}
			remaining -= take
		}
	}

	var usedPower, totalPower float64
	for _, s := range state {
		totalPower += s.Power
		if s.allocated > 0 {
			usedPower += s.Power
		}
	}
	if totalPower > 0 {
		plan.UsagePct = 100 * usedPower / totalPower
	}
	return plan, nil
}
