// Package regress implements the fourth predictor family: black-box
// regression on workload features, as Witt et al. (arXiv:1805.11877)
// survey for distributed workloads. Where the historical method fits
// an exponential/linear pair to one architecture's response-time curve
// and the layered method solves a queueing model, the regression
// family treats the system as opaque: it encodes each observation as a
// fixed-order feature vector (population, mix shares, think time,
// per-class demands scaled by architecture speed), fits a polynomial
// ridge model by closed-form normal equations, and falls back to
// inverse-distance-weighted k-NN where the polynomial extrapolates.
//
// Training data comes from `trade` simulator runs (Train) or from any
// externally measured samples (Fit) — e.g. the obs layer's response
// time aggregates. Train is Measure then FitMeasured, so a caller that
// keeps the measured samples (the prediction service does, per key) can
// refit without simulating again. Training is deterministic: the feature order is
// fixed, sample populations are drawn from seeded streams before any
// parallelism starts, measurements fan out over workers with one
// seeded run per sample, and the fit itself is a serial pass in fixed
// order — so fits are bit-reproducible at any worker count.
package regress

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"perfpred/internal/workload"
)

// Sample is one training observation: a workload point and the mean
// response time measured there.
type Sample struct {
	// Arch names the application-server architecture measured.
	Arch string
	// Clients is the closed population.
	Clients int
	// BuyFrac is the buy share of the mix (0 = typical all-browse).
	BuyFrac float64
	// MeanRT is the measured mean response time, seconds.
	MeanRT float64
}

// FitConfig tunes the regression fit.
type FitConfig struct {
	// Degree is the polynomial degree on the load feature (default 3).
	Degree int
}

// The rest of the fit is the one configuration the four-family
// comparison scores. The target is log response time: positivity comes
// for free and least squares then minimises relative error, which keeps
// the fit honest on both sides of the saturation knee where response
// times span orders of magnitude.
const (
	// ridgeLambda is the ridge penalty on non-intercept weights.
	ridgeLambda = 1e-6
	// knnK is the neighbour count of the k-NN fallback.
	knnK = 3
)

func (c FitConfig) withDefaults() FitConfig {
	if c.Degree == 0 {
		c.Degree = 3
	}
	return c
}

// validate reports the first structural problem.
func (c FitConfig) validate() error {
	if c = c.withDefaults(); c.Degree < 1 || c.Degree > 6 {
		return fmt.Errorf("regress: degree %d outside [1,6]", c.Degree)
	}
	return nil
}

// archTraits is the per-architecture demand/speed context features are
// computed against.
type archTraits struct {
	appBrowse float64 // browse app-server demand on this arch, seconds
	appBuy    float64
	dbBrowse  float64 // total DB seconds per browse request
	dbBuy     float64
	think     float64
}

func traitsFor(arch workload.ServerArch, demands map[workload.RequestType]workload.Demand, think float64) archTraits {
	br, bu := demands[workload.Browse], demands[workload.Buy]
	return archTraits{
		appBrowse: br.AppServerTime / arch.Speed,
		appBuy:    bu.AppServerTime / arch.Speed,
		dbBrowse:  br.TotalDBTime(),
		dbBuy:     bu.TotalDBTime(),
		think:     think,
	}
}

// encode builds the fixed-order feature vector for a query point. The
// order is part of the determinism contract and of the on-disk/table
// documentation — do not reorder:
//
//	[0] 1 (intercept)
//	[1..d]  x, x², …, x^d where x = clients × mix-weighted app demand
//	        (architecture-scaled offered app-server work, seconds)
//	[d+1]   clients × mix-weighted total DB time (offered DB work)
//	[d+2]   buy fraction of the mix
//	[d+3]   mean think time, seconds
func encode(tr archTraits, clients float64, buyFrac float64, degree int, dst []float64) []float64 {
	appD := buyFrac*tr.appBuy + (1-buyFrac)*tr.appBrowse
	dbD := buyFrac*tr.dbBuy + (1-buyFrac)*tr.dbBrowse
	x := clients * appD
	dst = dst[:0]
	dst = append(dst, 1)
	p := 1.0
	for i := 0; i < degree; i++ {
		p *= x
		dst = append(dst, p)
	}
	dst = append(dst, clients*dbD, buyFrac, tr.think)
	return dst
}

// featureCount returns the encoded vector length for a degree.
func featureCount(degree int) int { return 1 + degree + 3 }

// archFit is one architecture's fitted model plus the retained
// training set for the k-NN fallback.
type archFit struct {
	traits  archTraits
	beta    []float64 // ridge weights over standardized features
	mean    []float64 // feature standardization (index 0 untouched)
	scale   []float64
	samples []Sample // fixed training order, retained for k-NN
	feats   [][]float64
	maxPop  float64 // largest trained population
}

// Model is a fitted regression predictor family over one or more
// architectures. It satisfies the resource manager's Predictor
// interface, so it drops into Algorithm 1, the evaluation harness and
// the serving layer exactly where HYDRA/LQN/hybrid models do.
type Model struct {
	cfg   FitConfig
	archs map[string]*archFit
	// QueryBuyFrac is the mix the rm-facing Predict/MaxClients answer
	// for (the Predictor interface carries no mix). Defaults to the
	// first trained mix.
	QueryBuyFrac float64
	// Stats records what training cost — the startup-cost axis of the
	// four-family comparison.
	Stats TrainStats
}

// TrainStats accounts for what it cost to bring the model up.
type TrainStats struct {
	// Samples is the number of training observations.
	Samples int
	// SimSeconds is the total simulated seconds of measurement the
	// training set consumed (warm-up + measured horizon per sample) —
	// the startup-cost currency shared with hybrid's calibration runs.
	SimSeconds float64
	// WallSeconds is the wall-clock spent measuring + fitting.
	WallSeconds float64
}

// fit builds a Model from externally measured samples. Samples are
// grouped by architecture; each architecture needs at least
// featureCount(degree)+1 observations. The fit is a serial pass in the
// given sample order — callers wanting bit-reproducibility must
// present samples in a deterministic order (Train does).
func fit(samples []Sample, archs []workload.ServerArch, demands map[workload.RequestType]workload.Demand, think float64, cfg FitConfig) (*Model, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if len(samples) == 0 {
		return nil, errors.New("regress: no training samples")
	}
	byArch := make(map[string][]Sample)
	for _, s := range samples {
		if s.Clients <= 0 || s.MeanRT <= 0 || s.BuyFrac < 0 || s.BuyFrac > 1 {
			return nil, fmt.Errorf("regress: bad sample %+v", s)
		}
		byArch[s.Arch] = append(byArch[s.Arch], s)
	}
	archByName := make(map[string]workload.ServerArch, len(archs))
	for _, a := range archs {
		archByName[a.Name] = a
	}
	m := &Model{cfg: cfg, archs: make(map[string]*archFit, len(byArch)), QueryBuyFrac: samples[0].BuyFrac}
	// Fit architectures in sorted-name order so float accumulation
	// order never depends on map iteration.
	names := make([]string, 0, len(byArch))
	for name := range byArch {
		names = append(names, name)
	}
	sort.Strings(names)
	nf := featureCount(cfg.Degree)
	for _, name := range names {
		arch, ok := archByName[name]
		if !ok {
			return nil, fmt.Errorf("regress: samples for unknown architecture %q", name)
		}
		group := byArch[name]
		if len(group) < nf+1 {
			return nil, fmt.Errorf("regress: architecture %q has %d samples, need ≥ %d for degree %d",
				name, len(group), nf+1, cfg.Degree)
		}
		af, err := fitArch(traitsFor(arch, demands, think), group, cfg)
		if err != nil {
			return nil, fmt.Errorf("regress: %q: %w", name, err)
		}
		m.archs[name] = af
	}
	m.Stats.Samples = len(samples)
	return m, nil
}

// fitArch standardizes features and solves the ridge normal equations
// for one architecture.
func fitArch(tr archTraits, group []Sample, cfg FitConfig) (*archFit, error) {
	nf := featureCount(cfg.Degree)
	af := &archFit{traits: tr, samples: group}
	af.feats = make([][]float64, len(group))
	for i, s := range group {
		af.feats[i] = encode(tr, float64(s.Clients), s.BuyFrac, cfg.Degree, make([]float64, 0, nf))
		af.maxPop = max(af.maxPop, float64(s.Clients))
	}
	// Standardize non-intercept columns: ridge penalties only make
	// sense on comparable scales, and the k-NN metric needs them too.
	af.mean = make([]float64, nf)
	af.scale = make([]float64, nf)
	af.scale[0] = 1
	for j := 1; j < nf; j++ {
		var sum float64
		for _, f := range af.feats {
			sum += f[j]
		}
		mu := sum / float64(len(af.feats))
		var ss float64
		for _, f := range af.feats {
			d := f[j] - mu
			ss += d * d
		}
		sd := math.Sqrt(ss / float64(len(af.feats)))
		if sd < 1e-12 {
			sd = 1 // constant column: center only
		}
		af.mean[j], af.scale[j] = mu, sd
		for _, f := range af.feats {
			f[j] = (f[j] - mu) / sd
		}
	}
	y := make([]float64, len(group))
	for i, s := range group {
		y[i] = math.Log(s.MeanRT)
	}
	beta, err := ridgeSolve(af.feats, y, ridgeLambda)
	if err != nil {
		return nil, err
	}
	af.beta = beta
	return af, nil
}

// predictArch evaluates the ridge polynomial at a query, falling back
// to k-NN when the polynomial is untrustworthy: non-finite or
// non-positive output, or a query population beyond the trained range
// (polynomials explode off the grid; the nearest neighbours merely
// flatten, which is the safer failure for capacity search).
func (m *Model) predictArch(af *archFit, clients, buyFrac float64) float64 {
	raw := encode(af.traits, clients, buyFrac, m.cfg.Degree, make([]float64, 0, len(af.mean)))
	std := make([]float64, len(raw))
	for j := range raw {
		std[j] = (raw[j] - af.mean[j]) / af.scale[j]
	}
	var logRT float64
	for j, b := range af.beta {
		logRT += b * std[j]
	}
	rt := math.Exp(logRT)
	if clients <= af.maxPop && rt > 0 && !math.IsNaN(rt) && !math.IsInf(rt, 0) {
		return rt
	}
	knnRT := knnPredict(af, std)
	if clients > af.maxPop {
		// Beyond the grid the neighbour estimate flattens at the edge
		// of the data. Response time past saturation grows linearly in
		// the population (R ≈ N/Xmax − Z), so extend the k-NN edge
		// value proportionally — a deliberately rough black-box
		// extrapolation that at least preserves monotonicity for the
		// capacity search.
		return knnRT * (clients / af.maxPop)
	}
	return knnRT
}

// Predict returns the model's mean response time (seconds) for the
// architecture at n clients under the model's QueryBuyFrac mix. It is
// the rm.Predictor contract.
func (m *Model) Predict(arch string, n float64) (float64, error) {
	af, ok := m.archs[arch]
	if !ok {
		return 0, fmt.Errorf("regress: no model for architecture %q", arch)
	}
	if n < 1 {
		n = 1
	}
	return m.predictArch(af, n, m.QueryBuyFrac), nil
}

// Weights returns a copy of the fitted (standardized-feature) weights
// for the architecture — the bit-reproducibility witnesses the bench
// snapshot compares across worker counts.
func (m *Model) Weights(arch string) []float64 {
	af, ok := m.archs[arch]
	if !ok {
		return nil
	}
	return append([]float64(nil), af.beta...)
}
