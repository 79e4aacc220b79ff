package rm

import (
	"context"
	"errors"
	"fmt"
	"math"

	"perfpred/internal/parallel"
	"perfpred/internal/sla"
	"perfpred/internal/workload"
)

// ClassShare defines a service class as a fraction of the total
// offered load, with its SLA goal — the §9.1 workload specification
// (10% buy at 150 ms, 45% high-priority browse at 300 ms, 45%
// low-priority browse at 600 ms).
type ClassShare struct {
	Name     string
	GoalRT   float64
	Fraction float64
}

// CaseStudyShares returns the §9.1 workload mix.
func CaseStudyShares() []ClassShare {
	return []ClassShare{
		{Name: "buy", GoalRT: 0.150, Fraction: 0.10},
		{Name: "browse-high", GoalRT: 0.300, Fraction: 0.45},
		{Name: "browse-low", GoalRT: 0.600, Fraction: 0.45},
	}
}

// CaseStudyServers returns the §9.1 server pool: 16 application
// servers — eight of the new architecture (AppServS), four AppServF
// and four AppServVF.
func CaseStudyServers() []Server {
	var servers []Server
	add := func(arch workload.ServerArch, count int) {
		for i := 1; i <= count; i++ {
			servers = append(servers, Server{
				Name:  fmt.Sprintf("%s-%d", arch.Name, i),
				Arch:  arch.Name,
				Power: arch.MaxThroughputTypical,
			})
		}
	}
	add(workload.AppServS(), 8)
	add(workload.AppServF(), 4)
	add(workload.AppServVF(), 4)
	return servers
}

// SplitLoad turns a total client count into per-class Classes using
// the shares (largest-remainder rounding keeps the total exact).
func SplitLoad(total int, shares []ClassShare) ([]Class, error) {
	if total < 0 {
		return nil, errors.New("rm: negative total load")
	}
	var sum float64
	for _, s := range shares {
		if s.Fraction < 0 {
			return nil, fmt.Errorf("rm: class %q has negative fraction", s.Name)
		}
		sum += s.Fraction
	}
	if math.Abs(sum-1) > 1e-9 {
		return nil, fmt.Errorf("rm: class fractions sum to %v, want 1", sum)
	}
	classes := make([]Class, len(shares))
	assigned := 0
	fracs := make([]float64, len(shares))
	for i, s := range shares {
		exact := float64(total) * s.Fraction
		n := int(math.Floor(exact))
		classes[i] = Class{Name: s.Name, GoalRT: s.GoalRT, Clients: n}
		fracs[i] = exact - float64(n)
		assigned += n
	}
	for assigned < total {
		best := 0
		for i := 1; i < len(fracs); i++ {
			if fracs[i] > fracs[best] {
				best = i
			}
		}
		classes[best].Clients++
		fracs[best] = -1
		assigned++
	}
	return classes, nil
}

// SweepPoint is one load level of a figure-5/6 series.
type SweepPoint struct {
	TotalClients   int
	SLAFailurePct  float64
	ServerUsagePct float64
}

// SweepLoad runs the full plan/evaluate cycle at each load level with
// a fixed slack — one line of figures 5 and 6.
func SweepLoad(shares []ClassShare, servers []Server, pred, truth Predictor, slack float64, loads []int, allocOpts Options) ([]SweepPoint, error) {
	points := make([]SweepPoint, 0, len(loads))
	for _, total := range loads {
		classes, err := SplitLoad(total, shares)
		if err != nil {
			return nil, err
		}
		plan, err := Allocate(classes, servers, pred, slack, allocOpts)
		if err != nil {
			return nil, err
		}
		res, err := evaluate(plan, classes, servers, truth)
		if err != nil {
			return nil, err
		}
		points = append(points, SweepPoint{
			TotalClients:   total,
			SLAFailurePct:  res.SLAFailurePct,
			ServerUsagePct: res.ServerUsagePct,
		})
	}
	return points, nil
}

// AverageMetrics computes the §9.1 'average % SLA failure' and
// 'average % server usage' across the loads prior to 100% server
// usage.
func AverageMetrics(points []SweepPoint) (avgFailPct, avgUsagePct float64) {
	n := 0
	for _, p := range points {
		if p.ServerUsagePct >= 100 {
			break
		}
		n++
	}
	return averageMetricsN(points, n)
}

// averageMetricsN averages the first n sweep points. SweepSlack uses
// it with a fixed n across slack levels so the averages compare the
// same loads.
func averageMetricsN(points []SweepPoint, n int) (avgFailPct, avgUsagePct float64) {
	if n > len(points) {
		n = len(points)
	}
	if n <= 0 {
		return 0, 0
	}
	for _, p := range points[:n] {
		avgFailPct += p.SLAFailurePct
		avgUsagePct += p.ServerUsagePct
	}
	return avgFailPct / float64(n), avgUsagePct / float64(n)
}

// SlackPoint is one slack level of the figure-7/8 series.
type SlackPoint struct {
	Slack float64
	// AvgFailPct is the average % SLA failures across loads before
	// 100% usage.
	AvgFailPct float64
	// AvgUsagePct is the average % server usage across the same loads.
	AvgUsagePct float64
	// AvgUsageSavingPct is SUmax − AvgUsagePct (§9.1's '% server usage
	// saving' averaged over loads).
	AvgUsageSavingPct float64
}

// SweepSlack evaluates the load sweep at each slack level and reports
// the averaged cost metrics, with the saving measured against the
// usage at the first (largest) slack — call it with the minimum
// 0%-failure slack first in slacks to reproduce figure 7's SUmax
// anchoring. The set of loads averaged over is fixed by the anchor
// slack (its loads prior to 100% server usage), so every slack level's
// averages cover the same loads.
func SweepSlack(shares []ClassShare, servers []Server, pred, truth Predictor, slacks []float64, loads []int, allocOpts Options) ([]SlackPoint, error) {
	if len(slacks) == 0 {
		return nil, errors.New("rm: no slack levels")
	}
	// Each slack level's load sweep is an independent plan/evaluate
	// cycle over read-only predictors, so the sweeps fan out across the
	// cores; the anchor metrics (cutoff, SUmax) come from slacks[0]
	// exactly as in the serial loop, applied after the fan-out.
	series, err := parallel.Map(context.Background(), 0, len(slacks),
		func(_ context.Context, i int) ([]SweepPoint, error) {
			return SweepLoad(shares, servers, pred, truth, slacks[i], loads, allocOpts)
		})
	if err != nil {
		return nil, err
	}
	cutoff := 0
	for _, p := range series[0] {
		if p.ServerUsagePct >= 100 {
			break
		}
		cutoff++
	}
	if cutoff == 0 {
		cutoff = len(series[0])
	}
	var suMax float64
	out := make([]SlackPoint, 0, len(slacks))
	for i, slack := range slacks {
		fail, usage := averageMetricsN(series[i], cutoff)
		if i == 0 {
			suMax = usage
		}
		out = append(out, SlackPoint{
			Slack:             slack,
			AvgFailPct:        fail,
			AvgUsagePct:       usage,
			AvgUsageSavingPct: suMax - usage,
		})
	}
	return out, nil
}

// CheapestSlack maps each slack point's cost metrics through the cost
// model and returns the cheapest point and its cost — the §9.1
// closing extension: "given such functions the y-axis of figure 7
// could become a single cost axis [and] slack setting(s) with the
// lowest cost could then be determined".
func CheapestSlack(points []SlackPoint, cost sla.CostModel) (SlackPoint, float64, error) {
	if err := cost.Validate(); err != nil {
		return SlackPoint{}, 0, err
	}
	if len(points) == 0 {
		return SlackPoint{}, 0, errors.New("rm: no slack points")
	}
	best := points[0]
	bestCost := cost.Cost(best.AvgFailPct, best.AvgUsagePct)
	for _, p := range points[1:] {
		if c := cost.Cost(p.AvgFailPct, p.AvgUsagePct); c < bestCost {
			best, bestCost = p, c
		}
	}
	return best, bestCost, nil
}

// MinZeroFailureSlack searches the given slack levels (ascending) for
// the smallest one with zero SLA failures at every load before 100%
// server usage — the paper's 1.1 for its non-uniform hybrid
// predictions.
func MinZeroFailureSlack(shares []ClassShare, servers []Server, pred, truth Predictor, slacks []float64, loads []int, allocOpts Options) (float64, error) {
	for _, slack := range slacks {
		points, err := SweepLoad(shares, servers, pred, truth, slack, loads, allocOpts)
		if err != nil {
			return 0, err
		}
		ok := true
		for _, p := range points {
			if p.ServerUsagePct >= 100 {
				break
			}
			if p.SLAFailurePct > 0 {
				ok = false
				break
			}
		}
		if ok {
			return slack, nil
		}
	}
	return 0, errors.New("rm: no slack level achieves zero failures")
}
