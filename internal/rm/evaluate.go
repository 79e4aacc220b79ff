package rm

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"perfpred/internal/sla"
)

// Result is the runtime outcome of a plan under the real system's
// behaviour.
type Result struct {
	// SLAFailurePct is the percentage of (real) clients rejected.
	SLAFailurePct float64
	// ServerUsagePct is the planned % server usage (the processing
	// power committed to the application).
	ServerUsagePct float64
	// Tracker carries the served/rejected accounting, per class.
	Tracker *sla.Tracker
}

// evaluate plays a plan out against the real system, represented by
// the truth predictor: real clients are distributed pro-rata over the
// planned (slack-inflated) allocations, each server rejects the
// clients beyond its *actual* capacity — "servers reject clients at
// runtime if response times are within a threshold of missing SLA
// goals" (§9), here exactly at the goal — and the runtime optimisation
// (the one responsible for the spiky figure-5 lines) re-places rejected
// clients on servers with real spare capacity. The two §9.1 cost
// metrics come back in Result.
func evaluate(plan *Plan, classes []Class, servers []Server, truth Predictor) (*Result, error) {
	if plan == nil {
		return nil, errors.New("rm: nil plan")
	}
	rmEvaluateCalls.Inc()

	classByName := make(map[string]Class, len(classes))
	for _, c := range classes {
		classByName[c.Name] = c
	}
	serverByName := make(map[string]Server, len(servers))
	for _, s := range servers {
		serverByName[s.Name] = s
	}

	// Distribute each class's real clients pro-rata over its planned
	// allocations (largest-remainder rounding keeps totals exact).
	type placement struct {
		server string
		class  string
		goal   float64
		real   int
	}
	var placements []placement
	tracker := sla.NewTracker()

	for _, c := range classes {
		planned := plan.plannedFor(c.Name)
		if planned == 0 {
			if c.Clients > 0 {
				tracker.Reject(c.Name, c.Clients)
			}
			continue
		}
		var allocs []Allocation
		for _, a := range plan.Allocations {
			if a.Class == c.Name {
				allocs = append(allocs, a)
			}
		}
		// Largest-remainder apportionment of real clients.
		shares := make([]float64, len(allocs))
		floors := make([]int, len(allocs))
		assigned := 0
		for i, a := range allocs {
			shares[i] = float64(c.Clients) * float64(a.Clients) / float64(planned)
			floors[i] = int(math.Floor(shares[i]))
			assigned += floors[i]
		}
		type rem struct {
			idx  int
			frac float64
		}
		rems := make([]rem, len(allocs))
		for i := range allocs {
			rems[i] = rem{i, shares[i] - float64(floors[i])}
		}
		sort.SliceStable(rems, func(i, j int) bool { return rems[i].frac > rems[j].frac })
		for k := 0; k < c.Clients-assigned; k++ {
			floors[rems[k%len(rems)].idx]++
		}
		for i, a := range allocs {
			if floors[i] > 0 {
				placements = append(placements, placement{
					server: a.Server, class: c.Name, goal: c.GoalRT, real: floors[i],
				})
			}
		}
	}

	// Per-server runtime admission: reject clients beyond the server's
	// real capacity at the tightest goal present, dropping the
	// loosest-goal (lowest-priority) clients first so existing
	// higher-priority clients keep their SLAs.
	perServer := make(map[string][]int) // server -> placement indexes
	for i, p := range placements {
		perServer[p.server] = append(perServer[p.server], i)
	}
	serverLoad := make(map[string]int)
	serverMinGoal := make(map[string]float64)
	pool := make(map[string]int)    // class -> rejected clients awaiting re-placement
	capMemo := make(map[capKey]int) // per-call capacity-search memo

	serverNames := make([]string, 0, len(perServer))
	for name := range perServer {
		serverNames = append(serverNames, name)
	}
	sort.Strings(serverNames)
	for _, name := range serverNames {
		idxs := perServer[name]
		srv, ok := serverByName[name]
		if !ok {
			return nil, fmt.Errorf("rm: plan references unknown server %q", name)
		}
		minGoal := math.Inf(1)
		total := 0
		for _, i := range idxs {
			minGoal = min(minGoal, placements[i].goal)
			total += placements[i].real
		}
		capReal, err := realCapacity(truth, srv.Arch, minGoal, capMemo)
		if err != nil {
			return nil, err
		}
		over := total - capReal
		if over > 0 {
			// Shed loosest goals first.
			sort.SliceStable(idxs, func(a, b int) bool {
				return placements[idxs[a]].goal > placements[idxs[b]].goal
			})
			for _, i := range idxs {
				if over <= 0 {
					break
				}
				drop := min(placements[i].real, over)
				placements[i].real -= drop
				pool[placements[i].class] += drop
				over -= drop
			}
			total = capReal
		}
		serverLoad[name] = total
		serverMinGoal[name] = minGoal
	}

	// Runtime optimisation: "use any available capacity the algorithm
	// leaves on a server" (§9.1) — re-place rejected clients on the
	// real spare capacity of servers the plan already uses,
	// tightest-goal classes first. Servers outside the plan stay
	// untouched; workload that still finds no room is an SLA failure
	// (the paper's second set of accept-all servers).
	classNames := make([]string, 0, len(pool))
	for name := range pool {
		classNames = append(classNames, name)
	}
	sort.Slice(classNames, func(i, j int) bool {
		return classByName[classNames[i]].GoalRT < classByName[classNames[j]].GoalRT
	})
	for _, cname := range classNames {
		goal := classByName[cname].GoalRT
		for _, s := range servers {
			if pool[cname] == 0 {
				break
			}
			mg, used := serverMinGoal[s.Name]
			if !used {
				continue // the optimisation only touches planned servers
			}
			g := min(goal, mg) // the tightest goal the server would then serve
			capReal, err := realCapacity(truth, s.Arch, g, capMemo)
			if err != nil {
				return nil, err
			}
			spare := capReal - serverLoad[s.Name]
			if spare <= 0 {
				continue
			}
			take := min(spare, pool[cname])
			serverLoad[s.Name] += take
			serverMinGoal[s.Name] = g
			pool[cname] -= take
			tracker.Serve(cname, take)
		}
	}

	for _, p := range placements {
		if p.real > 0 {
			tracker.Serve(p.class, p.real)
		}
	}
	for cname, n := range pool {
		if n > 0 {
			tracker.Reject(cname, n)
		}
	}

	return &Result{
		SLAFailurePct:  tracker.FailurePct(),
		ServerUsagePct: plan.UsagePct,
		Tracker:        tracker,
	}, nil
}

// capKey memoizes realCapacity within one Evaluate call: the admission
// and re-placement passes ask for the same (architecture, effective
// goal) pairs repeatedly, and the search behind each answer probes the
// truth predictor O(log n) times.
type capKey struct {
	arch string
	goal float64
}

// realCapacity asks the truth predictor how many clients the
// architecture actually holds within the goal, via the same search
// over integer populations that SimOracle.MaxClients runs — capacity is
// found by probing the predictor's response-time curve directly
// instead of trusting a MaxClients implementation to invert it.
func realCapacity(truth Predictor, arch string, goal float64, memo map[capKey]int) (int, error) {
	k := capKey{arch: arch, goal: goal}
	if c, ok := memo[k]; ok {
		return c, nil
	}
	rmPredictorCalls.Inc()
	c, err := sla.Goal{MaxRT: goal}.MaxClients(maxOracleClients, func(n float64) (float64, error) {
		return truth.Predict(arch, n)
	})
	if err != nil {
		return 0, err
	}
	memo[k] = c
	return c, nil
}
