package rm

import (
	"errors"
	"fmt"
	"sort"

	"perfpred/internal/sla"
	"perfpred/internal/workload"
)

// ArchPrice attaches a dollar price to an architecture — the axis the
// paper's §9 study lacks and arXiv:2304.01676 makes first-class.
type ArchPrice struct {
	Arch workload.ServerArch
	// HourlyCost is the $/hour of one server of this architecture.
	HourlyCost float64
	// Max is the largest number of servers of this architecture a mix
	// may use.
	Max int
}

// FrontierOptions tunes the cost-performance frontier sweep.
type FrontierOptions struct {
	// Slack is Algorithm 1's workload inflation (default 1).
	Slack float64
	// MaxServers caps the fleet size across architectures.
	MaxServers int
}

// FrontierPoint is one architecture mix's evaluation: how many
// clients the mix holds with every class inside its SLA (per the
// predictor), what the fleet costs, and the resulting $/request.
type FrontierPoint struct {
	// Counts[i] is the number of servers of prices[i].Arch.
	Counts []int
	// Servers is the fleet size.
	Servers int
	// Capacity is the largest total client population Algorithm 1
	// places with no planned rejections.
	Capacity int
	// HourlyCost is the fleet's $/hour.
	HourlyCost float64
	// ThroughputPerSec is the goal-bounded request rate at capacity:
	// each class's clients cycle at one request per (goal + think), so
	// the number is a conservative (SLA-respecting) floor.
	ThroughputPerSec float64
	// CostPerMReq is dollars per million requests at that rate.
	CostPerMReq float64
	// Dominated marks mixes beaten by another mix that holds at least
	// as many clients for at most the cost (strictly better on one
	// axis). The frontier is the non-dominated subset.
	Dominated bool
}

// CostFrontier enumerates every architecture mix within the caps,
// finds each mix's capacity under Algorithm 1 with the given
// predictor, prices it, and marks Pareto dominance on the
// (capacity, hourly cost) plane. It returns all evaluated points
// sorted by ascending cost then descending capacity; filter on
// !Dominated for the frontier itself. This is Algorithm 1 extended to
// choose not just how many servers but which architectures: the
// frontier is exactly the set of rational fleet purchases.
func CostFrontier(prices []ArchPrice, pred Predictor, think float64, opt FrontierOptions) ([]FrontierPoint, error) {
	if len(prices) == 0 {
		return nil, errors.New("rm: frontier needs priced architectures")
	}
	for _, p := range prices {
		if p.HourlyCost <= 0 {
			return nil, fmt.Errorf("rm: architecture %q needs a positive hourly cost", p.Arch.Name)
		}
		if p.Max < 0 {
			return nil, fmt.Errorf("rm: architecture %q has negative max count", p.Arch.Name)
		}
	}
	if opt.Slack == 0 {
		opt.Slack = 1
	}
	if opt.MaxServers <= 0 {
		return nil, errors.New("rm: frontier needs a positive server cap")
	}
	if think < 0 {
		return nil, fmt.Errorf("rm: negative think time %v", think)
	}

	// Enumerate count vectors in lexicographic order — deterministic
	// output order before the final sort.
	var points []FrontierPoint
	counts := make([]int, len(prices))
	var walk func(i, used int) error
	walk = func(i, used int) error {
		if i == len(prices) {
			if used == 0 {
				return nil
			}
			pt, err := evalMix(counts, prices, pred, think, opt.Slack)
			if err != nil {
				return err
			}
			points = append(points, pt)
			return nil
		}
		max := prices[i].Max
		if max > opt.MaxServers-used {
			max = opt.MaxServers - used
		}
		for c := 0; c <= max; c++ {
			counts[i] = c
			if err := walk(i+1, used+c); err != nil {
				return err
			}
		}
		counts[i] = 0
		return nil
	}
	if err := walk(0, 0); err != nil {
		return nil, err
	}

	// Pareto dominance on (capacity ↑, hourly cost ↓).
	for i := range points {
		for j := range points {
			if i == j {
				continue
			}
			p, q := &points[i], &points[j]
			if q.Capacity >= p.Capacity && q.HourlyCost <= p.HourlyCost &&
				(q.Capacity > p.Capacity || q.HourlyCost < p.HourlyCost) {
				p.Dominated = true
				break
			}
		}
	}
	sort.SliceStable(points, func(a, b int) bool {
		if points[a].HourlyCost != points[b].HourlyCost {
			return points[a].HourlyCost < points[b].HourlyCost
		}
		if points[a].Capacity != points[b].Capacity {
			return points[a].Capacity > points[b].Capacity
		}
		return lexLess(points[a].Counts, points[b].Counts)
	})
	return points, nil
}

func lexLess(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// evalMix prices one architecture mix and finds its capacity: the
// largest total population of the §9.1 case-study mix Algorithm 1 plans
// with no rejections, by the shared search over the monotone "does N
// fully place?" predicate.
func evalMix(counts []int, prices []ArchPrice, pred Predictor, think, slack float64) (FrontierPoint, error) {
	pt := FrontierPoint{Counts: append([]int(nil), counts...)}
	var servers []Server
	for i, c := range counts {
		pt.Servers += c
		pt.HourlyCost += float64(c) * prices[i].HourlyCost
		for k := 1; k <= c; k++ {
			servers = append(servers, Server{
				Name:  fmt.Sprintf("%s-%d", prices[i].Arch.Name, k),
				Arch:  prices[i].Arch.Name,
				Power: prices[i].Arch.MaxThroughputTypical,
			})
		}
	}
	shares := CaseStudyShares()
	fits := func(total int) (bool, error) {
		classes, err := SplitLoad(total, shares)
		if err != nil {
			return false, err
		}
		plan, err := Allocate(classes, servers, pred, slack, Options{})
		if err != nil {
			return false, err
		}
		return len(plan.RejectedPlanned) == 0, nil
	}
	capN, err := sla.MaxClients(maxOracleClients, fits)
	if err != nil {
		return pt, err
	}
	pt.Capacity = capN
	if capN > 0 {
		classes, err := SplitLoad(capN, shares)
		if err != nil {
			return pt, err
		}
		for _, c := range classes {
			if c.GoalRT+think > 0 {
				pt.ThroughputPerSec += float64(c.Clients) / (c.GoalRT + think)
			}
		}
	}
	if pt.ThroughputPerSec > 0 {
		pt.CostPerMReq = pt.HourlyCost / (3600 * pt.ThroughputPerSec) * 1e6
	}
	return pt, nil
}
