package trade

import (
	"errors"
	"math"

	"perfpred/internal/scenario"
	"perfpred/internal/sim"
	"perfpred/internal/stats"
	"perfpred/internal/workload"
)

// scenStreamBase offsets the sim.Split indices of scenario generator
// streams off the pool root, far above any other Split consumer, so
// cohort streams can never collide with future pool-root splits.
// Cohort i draws arrivals from Split(base+2i) and MMPP modulation
// from Split(base+2i+1) — pure functions of (Seed, pool, cohort), so
// a spec-driven fleet's trajectory is identical at any shard count.
const scenStreamBase uint64 = 1 << 20

// scenGen drives one open scenario cohort through the pooled request
// lifecycle. It mirrors startOpenStream's structure — schedule the
// next arrival first, then admit the current request through
// admit — with the constant-rate Poisson draw replaced by the
// cohort's compiled generator (thinned time-varying Poisson, MMPP, or
// trace replay). The arrive continuation is bound once at
// registration and the generator pulls allocate nothing, so the
// steady-state arrival path stays zero-alloc.
type scenGen struct {
	s       *simulator
	gen     *scenario.Gen
	sampler *typeSampler
	cls     int32
	pendRT  workload.RequestType // the scheduled arrival's trace type ("" = sample the mix)
	arrive  func()
}

// startScenarioStream registers one open cohort's generator and
// schedules its first arrival.
func (s *simulator) startScenarioStream(co *scenario.Cohort, classIdx int, sampler *typeSampler, root *sim.Stream) {
	g := &scenGen{
		s: s,
		gen: scenario.NewGen(co,
			root.Split(scenStreamBase+uint64(2*classIdx)),
			root.Split(scenStreamBase+uint64(2*classIdx)+1)),
		sampler: sampler,
		cls:     int32(classIdx),
	}
	g.arrive = g.doArrive
	g.pull()
}

// pull takes the generator's next arrival and schedules the arrive
// continuation at its absolute time. An exhausted generator (a
// non-looping trace that ran out) simply stops scheduling.
func (g *scenGen) pull() {
	t, rt, ok := g.gen.Next()
	if !ok {
		return
	}
	g.pendRT = rt
	delay := t - g.s.eng.Now()
	if delay < 0 {
		delay = 0
	}
	g.s.eng.Schedule(delay, g.arrive)
}

// doArrive admits one scenario arrival: schedule the successor first
// (as Config.Load's open streams do, so admitting the request
// synchronously cannot perturb the arrival clock), then run the
// request like any open arrival, with a mix-sampled or trace-recorded
// type.
func (g *scenGen) doArrive() {
	s := g.s
	rt := g.pendRT
	g.pull()
	var d workload.Demand
	if rt != "" {
		d = s.cfg.Demands[rt]
	} else {
		d = g.sampler.sample(s.choose)
	}
	s.admit(s.newReq(-1, g.cls, d), -1)
}

// WindowPoint is one fixed-width window of a cold-start run: the
// completions it saw and their mean response time. The transient-
// error study compares these against per-window predictions, and the
// stabilisation study (§8.2) fits its settling model to them.
type WindowPoint struct {
	// Start and End bound the window in simulated seconds from cold
	// start.
	Start float64 `json:"start"`
	End   float64 `json:"end"`
	// Completed counts responses finished inside the window.
	Completed int `json:"completed"`
	// MeanRT is their mean response time (0 if none completed).
	MeanRT float64 `json:"mean_rt"`
	// Throughput is Completed over the window width.
	Throughput float64 `json:"throughput"`
}

// Windows runs the configured workload from a cold start — no warm-up
// discard; the config's WarmUp field is ignored — and reports
// completions in fixed-width windows across Duration. It is the view
// for everything steady-state means hide: the stabilisation behaviour
// the historical method records as a variable (§8.2) and time-varying
// open traffic (flash sales, MMPP bursts). The full Config is
// honoured, including session caches and critical sections, on one
// pool: the completion intercept is not safe across shard goroutines.
func Windows(cfg Config, window float64) ([]WindowPoint, error) {
	return windows(cfg, window, simOptions{})
}

// windows is Windows under the given constructor variant.
func windows(cfg Config, window float64, opt simOptions) ([]WindowPoint, error) {
	if window <= 0 {
		return nil, errors.New("trade: window must be positive")
	}
	if cfg.effectivePools() > 1 {
		return nil, errors.New("trade: windowed runs need one pool")
	}
	n := int(math.Ceil(cfg.Duration / window))
	if n < 1 {
		n = 1
	}
	accs := make([]stats.Accumulator, n)
	opt.intercept = func(now, rt float64) {
		idx := int(now / window)
		if idx >= n {
			idx = n - 1
		}
		accs[idx].Add(rt)
	}
	r, err := newSharded(cfg, opt)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	r.Advance(cfg.Duration)
	points := make([]WindowPoint, n)
	for i := range points {
		start := float64(i) * window
		end := start + window
		if end > cfg.Duration {
			end = cfg.Duration
		}
		points[i] = WindowPoint{
			Start:      start,
			End:        end,
			Completed:  accs[i].Count(),
			MeanRT:     accs[i].Mean(),
			Throughput: float64(accs[i].Count()) / (end - start),
		}
	}
	return points, nil
}
