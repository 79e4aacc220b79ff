package hist

import (
	"errors"
	"fmt"

	"perfpred/internal/stats"
)

// BuyPoint is one (buy-percentage, max-throughput) observation on an
// established server.
type BuyPoint struct {
	// BuyPct is the percentage of buy requests in the workload (0
	// represents the typical, all-browse workload).
	BuyPct float64
	// MaxThroughput is the observed max throughput, requests/second.
	MaxThroughput float64
}

// Relationship3 captures §4.3: the linear effect of the buy-request
// percentage on an established server's max throughput, transferable
// to new servers by the ratio of typical-workload max throughputs
// (equation 5).
type Relationship3 struct {
	line stats.LinearModel
	// xE0 is the established server's max throughput at 0% buy.
	xE0 float64
}

// FitRelationship3 fits the linear buy%→max-throughput trend from two
// or more observations on one established server. One observation
// must be at (or near) 0% buy to anchor the cross-server ratio.
func FitRelationship3(points []BuyPoint) (*Relationship3, error) {
	if len(points) < 2 {
		return nil, errors.New("hist: relationship 3 needs at least two buy-percentage points")
	}
	xs := make([]float64, len(points))
	ys := make([]float64, len(points))
	for i, p := range points {
		if p.BuyPct < 0 || p.BuyPct > 100 {
			return nil, fmt.Errorf("hist: buy percentage %v outside [0,100]", p.BuyPct)
		}
		if p.MaxThroughput <= 0 {
			return nil, fmt.Errorf("hist: non-positive max throughput %v", p.MaxThroughput)
		}
		xs[i] = p.BuyPct
		ys[i] = p.MaxThroughput
	}
	line, err := stats.FitLinear(xs, ys)
	if err != nil {
		return nil, fmt.Errorf("hist: relationship 3 fit: %w", err)
	}
	xE0 := line.Eval(0)
	if xE0 <= 0 {
		return nil, fmt.Errorf("hist: fitted 0%%-buy max throughput %v must be positive", xE0)
	}
	return &Relationship3{line: line, xE0: xE0}, nil
}

// NewServerMaxThroughput applies equation (5): the new server's max
// throughput at buyPct is the established trend scaled by the ratio of
// the servers' typical-workload (0% buy) max throughputs.
func (r *Relationship3) NewServerMaxThroughput(newServerX0, buyPct float64) (float64, error) {
	if newServerX0 <= 0 {
		return 0, errors.New("hist: new server 0%-buy max throughput must be positive")
	}
	x := r.line.Eval(buyPct) * newServerX0 / r.xE0
	if x <= 0 {
		return 0, fmt.Errorf("hist: extrapolated max throughput %v not positive at %v%% buy", x, buyPct)
	}
	return x, nil
}

// ModelAtBuyPct re-anchors a server model to a heterogeneous workload:
// it predicts the max throughput at buyPct via relationship 3 and
// rebuilds the relationship-1 parameters through rel2 at that max
// throughput. This composition produces the figure-4 predictions.
func (r *Relationship3) ModelAtBuyPct(rel2 *Relationship2, base *ServerModel, buyPct float64) (*ServerModel, error) {
	x, err := r.NewServerMaxThroughput(base.MaxThroughput, buyPct)
	if err != nil {
		return nil, err
	}
	return rel2.NewServerModel(base.Arch, x)
}
