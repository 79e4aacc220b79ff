// Package hybrid implements the paper's hybrid prediction method
// (§6): a historical model whose calibration data is *generated* by a
// layered queuing model instead of being measured. The layered model
// is calibrated once (per §5); thereafter it is solved at a handful of
// client populations per server architecture to produce pseudo
// historical data points, which calibrate relationship 1 (and, for
// heterogeneous workloads, relationship 3) of the historical model.
//
// This is the paper's "advanced" hybrid model: the layered model
// generates data for the specific architectures predictions are
// required for, so relationship 2 is not needed — each architecture is
// represented as an established server. The cost is a one-off
// "start-up" delay while the layered solver runs (11 seconds on the
// paper's Athlon); after it, predictions are closed-form and as fast
// as the historical method's.
package hybrid

import (
	"context"
	"errors"
	"fmt"
	"time"

	"perfpred/internal/hist"
	"perfpred/internal/lqn"
	"perfpred/internal/obs"
	"perfpred/internal/parallel"
	"perfpred/internal/workload"
)

// Config controls hybrid model construction.
type Config struct {
	// DB is the shared database server.
	DB workload.DBServer
	// Demands are the layered-queuing calibrated per-request-type
	// demands on the reference architecture (§5, Table 2).
	Demands map[workload.RequestType]workload.Demand
	// PointsPerEquation is how many pseudo historical data points the
	// layered model generates for each of the lower and upper
	// equations (the paper uses a maximum of 4). 0 selects 4; the
	// minimum is 2.
	PointsPerEquation int
	// LQN tunes the layered solver used for data generation.
	LQN lqn.Options
	// Workers bounds how many architectures generate their pseudo data
	// concurrently during Build. Each architecture's solves are
	// independent, so the built model is identical for any worker
	// count. 0 selects runtime.GOMAXPROCS(0); 1 builds serially.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.PointsPerEquation == 0 {
		c.PointsPerEquation = 4
	}
	return c
}

// Model is a calibrated hybrid model: one historical server model per
// architecture, all calibrated from layered-queuing pseudo data.
type Model struct {
	// Servers holds each architecture's calibrated historical model;
	// predictions, capacities and percentiles are asked of it by name
	// and are closed-form — no layered solve happens after start-up.
	Servers hist.ModelSet
	// StartupDelay is the total time spent generating pseudo
	// historical data and calibrating — the §6/§8.5 one-off cost
	// before the first prediction.
	StartupDelay time.Duration
	// Evaluations counts layered-solver runs during start-up.
	Evaluations int
}

// Build constructs the hybrid model for the given architectures. For
// each architecture it derives the max throughput and gradient from
// the layered model, generates the pseudo data points, and calibrates
// relationship 1.
func Build(cfg Config, servers []workload.ServerArch) (*Model, error) {
	cfg = cfg.withDefaults()
	if cfg.PointsPerEquation < 2 {
		return nil, errors.New("hybrid: need at least 2 points per equation")
	}
	if len(servers) == 0 {
		return nil, errors.New("hybrid: no server architectures")
	}
	start := time.Now()
	m := &Model{Servers: make(hist.ModelSet, len(servers))}
	type built struct {
		sm    *hist.ServerModel
		evals int
	}
	results, err := parallel.Map(context.Background(), cfg.Workers, len(servers),
		func(_ context.Context, i int) (built, error) {
			sm, evals, err := buildServerMix(cfg, servers[i], 0)
			if err != nil {
				return built{}, fmt.Errorf("hybrid: building %s: %w", servers[i].Name, err)
			}
			return built{sm: sm, evals: evals}, nil
		})
	if err != nil {
		return nil, err
	}
	for i, b := range results {
		m.Evaluations += b.evals
		m.Servers[servers[i].Name] = b.sm
	}
	m.StartupDelay = time.Since(start)
	hybridBuilds.Inc()
	hybridEvaluations.Add(uint64(m.Evaluations))
	return m, nil
}

// BuildServerMix builds one architecture's hybrid server model under a
// fixed buy mix: the layered model is swept over *mixed* populations
// (buyFrac buy clients, the rest browse) instead of the typical
// all-browse workload, and the resulting pseudo data calibrates a
// historical model whose predictions are mean response times under
// that mix. buyFrac 0 reproduces Build's per-architecture models
// exactly. This is the per-(architecture, mix) build the long-lived
// prediction service caches; it returns the calibrated model and the
// number of layered-solver evaluations the start-up cost went on.
func BuildServerMix(cfg Config, arch workload.ServerArch, buyFrac float64) (*hist.ServerModel, int, error) {
	cfg = cfg.withDefaults()
	if cfg.PointsPerEquation < 2 {
		return nil, 0, errors.New("hybrid: need at least 2 points per equation")
	}
	if buyFrac < 0 || buyFrac > 1 {
		return nil, 0, fmt.Errorf("hybrid: buy fraction %v outside [0,1]", buyFrac)
	}
	sm, evals, err := buildServerMix(cfg, arch, buyFrac)
	if err != nil {
		return nil, evals, fmt.Errorf("hybrid: building %s (buy %.1f%%): %w", arch.Name, 100*buyFrac, err)
	}
	hybridBuilds.Inc()
	hybridEvaluations.Add(uint64(evals))
	return sm, evals, nil
}

// The hybrid method's one-off start-up cost (§8.5), phase by phase:
// where the 11-seconds-on-an-Athlon delay actually goes. The phase
// histograms record seconds per server architecture built; unbound,
// they take no clock readings beyond Build's StartupDelay.
var (
	hybridBuilds      = obs.DeclareCounter("hybrid_builds")      // Build and BuildServerMix calls completed
	hybridEvaluations = obs.DeclareCounter("hybrid_evaluations") // layered-solver runs during start-up
	hybridPhaseMaxTP  = obs.DeclareHistogram("hybrid_phase_maxthroughput_seconds", obs.DurationBuckets()...)
	hybridPhaseGrad   = obs.DeclareHistogram("hybrid_phase_gradient_seconds", obs.DurationBuckets()...)
	hybridPhaseData   = obs.DeclareHistogram("hybrid_phase_pseudodata_seconds", obs.DurationBuckets()...)
	hybridPhaseCal    = obs.DeclareHistogram("hybrid_phase_calibrate_seconds", obs.DurationBuckets()...)
)

func buildServerMix(cfg Config, arch workload.ServerArch, buyFrac float64) (*hist.ServerModel, int, error) {
	evals := 0
	// The whole pseudo-data sweep solves one model at different client
	// populations — this is the start-up delay §8.5 charges the hybrid
	// method for. The all-browse path keeps the single-class typical
	// workload Build has always used, so its models (and the experiment
	// goldens behind them) are unchanged.
	sweep, err := lqn.NewTradeSweep(arch, cfg.DB, cfg.Demands, workload.MixLoad(1, buyFrac), cfg.LQN)
	if err != nil {
		return nil, 0, err
	}
	solveTypical := func(n int) (*lqn.Result, error) {
		return sweep.Solve(workload.MixLoad(n, buyFrac))
	}
	// Max throughput: solve far past the saturation the benchmark
	// suggests and read the plateau throughput.
	estSat := int(arch.Speed * workload.MaxThroughputF * (workload.ThinkTimeMean + 1))
	phase := hybridPhaseMaxTP.Start()
	res, err := solveTypical(2 * estSat)
	if err != nil {
		return nil, evals, err
	}
	evals++
	hybridPhaseMaxTP.ObserveSince(phase)
	xMax := res.TotalThroughput()
	if xMax <= 0 {
		return nil, evals, errors.New("hybrid: layered model predicts zero max throughput")
	}

	// Gradient: one light-load solve; m = X/N well below saturation.
	nLight := max(1, int(0.2*float64(estSat)))
	phase = hybridPhaseGrad.Start()
	res, err = solveTypical(nLight)
	if err != nil {
		return nil, evals, err
	}
	evals++
	hybridPhaseGrad.ObserveSince(phase)
	m := res.TotalThroughput() / float64(nLight)
	if m <= 0 {
		return nil, evals, errors.New("hybrid: layered model predicts zero gradient")
	}
	nStar := xMax / m

	// Pseudo historical data: PointsPerEquation populations below 66%
	// of the max-throughput load and the same number above 110%.
	var points []hist.DataPoint
	gen := func(fracs []float64) error {
		for _, f := range fracs {
			n := max(1, int(f*nStar))
			r, err := solveTypical(n)
			if err != nil {
				return err
			}
			evals++
			points = append(points, hist.DataPoint{
				Clients: float64(n),
				MeanRT:  r.MeanResponseTime(),
				Samples: 0, // pseudo data: no real samples behind it
			})
		}
		return nil
	}
	phase = hybridPhaseData.Start()
	if err := gen(Spread(0.20, 0.62, cfg.PointsPerEquation)); err != nil {
		return nil, evals, err
	}
	if err := gen(Spread(1.15, 1.70, cfg.PointsPerEquation)); err != nil {
		return nil, evals, err
	}
	hybridPhaseData.ObserveSince(phase)
	phase = hybridPhaseCal.Start()
	sm, err := hist.CalibrateServer(arch, xMax, m, points)
	if err != nil {
		return nil, evals, err
	}
	hybridPhaseCal.ObserveSince(phase)
	return sm, evals, nil
}

// Spread returns count values evenly spaced across [lo, hi] — where
// calibration points sit, as fractions of the saturation population.
func Spread(lo, hi float64, count int) []float64 {
	if count == 1 {
		return []float64{(lo + hi) / 2}
	}
	out := make([]float64, count)
	for i := range out {
		out[i] = lo + (hi-lo)*float64(i)/float64(count-1)
	}
	return out
}

// BuildRelationship3 generates relationship 3 (buy% → max throughput)
// from layered-model max-throughput evaluations at the given buy
// percentages on the reference (established) architecture — how the
// paper generates its figure 4 inputs with LQNS.
func BuildRelationship3(cfg Config, established workload.ServerArch, buyPcts []float64) (*hist.Relationship3, int, error) {
	cfg = cfg.withDefaults()
	if len(buyPcts) < 2 {
		return nil, 0, errors.New("hybrid: need at least two buy percentages")
	}
	evals := 0
	points := make([]hist.BuyPoint, 0, len(buyPcts))
	estSat := int(established.Speed * workload.MaxThroughputF * (workload.ThinkTimeMean + 1))
	// Varying the buy percentage only re-splits the fixed total
	// population between the two classes: one sweep over the mix.
	sweep, err := lqn.NewTradeSweep(established, cfg.DB, cfg.Demands, workload.MixedWorkload(2*estSat, buyPcts[0]/100), cfg.LQN)
	if err != nil {
		return nil, evals, err
	}
	for _, pct := range buyPcts {
		res, err := sweep.Solve(workload.MixedWorkload(2*estSat, pct/100))
		if err != nil {
			return nil, evals, err
		}
		evals++
		points = append(points, hist.BuyPoint{BuyPct: pct, MaxThroughput: res.TotalThroughput()})
	}
	rel3, err := hist.FitRelationship3(points)
	hybridEvaluations.Add(uint64(evals))
	return rel3, evals, err
}
