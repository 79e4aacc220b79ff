package serve

import (
	"context"
	"sort"
	"sync/atomic"
	"time"

	"perfpred/internal/hist"
	"perfpred/internal/hybrid"
	"perfpred/internal/obs"
	"perfpred/internal/parallel"
	"perfpred/internal/regress"
	"perfpred/internal/rm"
	"perfpred/internal/rtdist"
	"perfpred/internal/sessioncache"
	"perfpred/internal/trade"
	"perfpred/internal/workload"
)

// modelKey identifies one servable model: a method's model of an
// architecture under a buy mix. The mix is quantised to 0.1% so float
// jitter in request payloads cannot mint unbounded distinct keys.
type modelKey struct {
	method      string
	arch        string
	buyPctTenth int // buy percentage × 10, i.e. 125 = 12.5%
}

func makeKey(method, arch string, buyPct float64) modelKey {
	return modelKey{method: method, arch: arch, buyPctTenth: int(buyPct*10 + 0.5)}
}

// buyFrac converts the quantised mix back to the fraction the builders
// consume.
func (k modelKey) buyFrac() float64 { return float64(k.buyPctTenth) / 1000 }

// modelEntry is one cached per-(method, architecture, mix) model and
// the cold-build cost it took to make.
type modelEntry struct {
	// pred answers the two mean-value questions: the hybrid-calibrated
	// historical model, or the cheap tier's black-box regression model.
	pred rm.Predictor
	// sm is the hybrid tier's model (unset on other tiers): its
	// saturation boundary picks the §7.1 distribution a percentile is
	// read from, at the scale Service.laplaceScale gives the key.
	sm *hist.ServerModel
	// buildWall is the build's wall-clock cost (the §8.5 start-up
	// delay this entry amortises across warm predictions).
	buildWall time.Duration
}

// evidence is what one key took from the simulator — the measured part
// of what it serves; everything else is solves and fits over it,
// microseconds against the simulator's milliseconds. It is
// deterministic in the key (fixed seed, fixed horizon), so keeping it
// (Service.evidence) changes when a number is computed, never which
// number is served.
type evidence struct {
	// laplaceB is a hybrid key's calibrated §7.1 percentile scale,
	// measured on the key's first percentile request; calibration is
	// that run's wall time, reported to the request that waited on it
	// and part of no served number.
	laplaceB    float64
	calibration time.Duration
	// samples are a regress key's training measurements, in fit order.
	// Fits read them and never write.
	samples []regress.Sample
}

// modelStore is the service's one stampede-proof model store, shared
// by every method that serves from a cached model: a bounded
// sessioncache.LRU holds finished models, and a parallel.Memo
// singleflight collapses a thundering herd of cold requests for one key
// into exactly one build. Completed flights are immediately forgotten
// so the LRU is the single source of truth — after an eviction the next
// request misses and rebuilds (from the key's kept evidence, without
// the simulator), and during a rebuild Forget's done-only semantics
// guarantee no duplicate build can start.
//
// Builds are admission-controlled across all methods together: at most
// workers builds run concurrently, at most queued more may wait for a
// slot, and anything beyond that is rejected with ErrOverloaded so a
// cold-key flood degrades to fast 429s instead of a convoy of queued
// solves.
type modelStore struct {
	lru     *sessioncache.LRU[modelKey, *modelEntry]
	flights parallel.Memo[modelKey, *modelEntry]

	build func(modelKey) (*modelEntry, error)

	slots *admission[struct{}]
}

// The model store's traffic and cold-build cost.
var (
	serveCacheHits      = obs.DeclareCounter("serve_cache_hits")
	serveCacheMisses    = obs.DeclareCounter("serve_cache_misses")
	serveCacheEvictions = obs.DeclareCounter("serve_cache_evictions")
	serveBuilds         = obs.DeclareCounter("serve_builds")
	serveBuildSeconds   = obs.DeclareHistogram("serve_build_seconds", obs.DurationBuckets()...)
)

func newModelStore(capacity, workers, maxQueued int, build func(modelKey) (*modelEntry, error)) *modelStore {
	c := &modelStore{
		lru:   sessioncache.NewLRU[modelKey, *modelEntry](capacity),
		build: build,
		slots: newAdmission(serveBuildQueueDepth, serveBuildQueueHighWater, make([]struct{}, workers), maxQueued),
	}
	c.lru.OnEvict(func(modelKey, *modelEntry) {
		serveCacheEvictions.Inc()
	})
	return c
}

// get returns the entry for key, building it on a miss. cold reports
// whether this request had to wait on a build (shared or its own).
// The returned error is ErrOverloaded when the build queue is full and
// ctx.Err() when the caller's own deadline expired while waiting.
func (c *modelStore) get(ctx context.Context, key modelKey) (e *modelEntry, cold bool, err error) {
	if e, ok := c.lru.Get(key); ok {
		serveCacheHits.Inc()
		return e, false, nil
	}
	serveCacheMisses.Inc()
	e, err = shareFlight(ctx, func() (*modelEntry, error) { return c.flight(ctx, key) })
	if err != nil {
		return nil, true, err
	}
	// The value now lives in the LRU; dropping the completed flight
	// makes eviction → rebuild work (Forget leaves in-progress flights
	// alone, so this is safe against concurrent rebuilds).
	c.flights.Forget(key)
	return e, true, nil
}

// flight joins the build of key in progress, or leads one: admission to
// a worker slot on the leader's ctx, the build, the LRU insert.
func (c *modelStore) flight(ctx context.Context, key modelKey) (*modelEntry, error) {
	return c.flights.DoCtx(ctx, key, func() (*modelEntry, error) {
		slot, err := c.slots.acquire(ctx)
		if err != nil {
			return nil, err
		}
		defer c.slots.release(slot)
		start := time.Now()
		entry, err := c.build(key)
		if err != nil {
			return nil, err
		}
		entry.buildWall = time.Since(start)
		serveBuilds.Inc()
		serveBuildSeconds.Observe(entry.buildWall.Seconds())
		c.lru.Put(key, entry)
		return entry, nil
	})
}

// shareFlight runs flight, a singleflight call made on ctx, until it
// ends in anything but a context error that is not ctx's own. A flight
// fails with a context error when its leader gave up waiting for a
// build slot. That deadline was the leader's: a joiner whose own still
// stands goes round again, leading the next flight if nobody else does.
func shareFlight[V any](ctx context.Context, flight func() (V, error)) (V, error) {
	v, err := flight()
	for isContextErr(err) && ctx.Err() == nil {
		v, err = flight()
	}
	return v, err
}

// Per admission queue, callers waiting for a slot or holding one, and
// the callers either queue turned away.
var (
	serveBuildQueueDepth     = obs.DeclareGauge("serve_build_queue_depth")
	serveBuildQueueHighWater = obs.DeclareMaxGauge("serve_build_queue_high_water")
	serveSolveQueueDepth     = obs.DeclareGauge("serve_solve_queue_depth")
	serveSolveQueueHighWater = obs.DeclareMaxGauge("serve_solve_queue_high_water")
	serveRejectedOverload    = obs.DeclareCounter("serve_rejected_overload") // 429s
)

// admission bounds one kind of work, builds or layered solves: at most
// len(slots) callers hold a slot at once, at most maxWait more wait for
// one, and anything beyond that is rejected with ErrOverloaded. A slot
// is a value the holder works with — nothing for a build, a solver's
// warm state for a solve — handed back on release.
type admission[T any] struct {
	slots   chan T       // the idle slots
	queued  atomic.Int64 // admitted callers, waiting for a slot or holding one
	maxWait int64
	depth   *obs.GaugeVar    // kept in step with queued
	high    *obs.MaxGaugeVar // queued's high-water mark
}

func newAdmission[T any](depth *obs.GaugeVar, high *obs.MaxGaugeVar, slots []T, maxWait int) *admission[T] {
	a := &admission[T]{slots: make(chan T, len(slots)), maxWait: int64(maxWait), depth: depth, high: high}
	for _, s := range slots {
		a.slots <- s
	}
	return a
}

// acquire counts the caller in and hands it a slot, rejecting at once
// when the slots are taken and the wait behind them is full, and giving
// up with ctx's error when the caller's deadline passes first — or had
// already passed, so a dead request never takes a slot.
func (a *admission[T]) acquire(ctx context.Context) (T, error) {
	var none T
	if err := ctx.Err(); err != nil {
		return none, err
	}
	q := a.track(1)
	a.high.Observe(q)
	if q > int64(cap(a.slots))+a.maxWait {
		a.track(-1)
		serveRejectedOverload.Inc()
		return none, ErrOverloaded
	}
	select {
	case s := <-a.slots:
		return s, nil
	case <-ctx.Done():
		a.track(-1)
		return none, ctx.Err()
	}
}

// release hands a slot back and counts its holder out.
func (a *admission[T]) release(s T) {
	a.slots <- s
	a.track(-1)
}

// track moves the count of callers waiting or holding a slot by d and
// keeps the queue's depth gauge in step with it.
func (a *admission[T]) track(d int64) int64 {
	a.depth.Add(d)
	return a.queued.Add(d)
}

// buildEntry is the store's cold path, first build and rebuild alike:
// resolve the key's architecture and run the build of the key's method.
// A regress build is two steps — measure, which takes the key's
// evidence from Service.evidence and so runs the simulator only the
// first time the key is ever built, and assemble, which fits around it.
// A hybrid build is solves alone: its evidence waits for the key's
// first percentile request (Service.laplaceScale).
func (s *Service) buildEntry(key modelKey) (*modelEntry, error) {
	arch, err := s.arch(key.arch)
	if err != nil {
		return nil, err
	}
	return methods[key.method].build(s, key, arch)
}

// arch resolves a request's architecture name.
func (s *Service) arch(name string) (workload.ServerArch, error) {
	a, ok := s.archs[name]
	if !ok {
		return a, &badRequestError{msg: "unknown architecture " + name}
	}
	return a, nil
}

// buildHybrid is the hybrid method's cold path: generate the hybrid
// model for the key from warm-started layered solves. Means,
// capacities and allocations read nothing else, so the build runs no
// simulation.
func (s *Service) buildHybrid(key modelKey, arch workload.ServerArch) (*modelEntry, error) {
	cfg := hybrid.Config{
		DB:                s.cfg.DB,
		Demands:           s.cfg.Demands,
		PointsPerEquation: s.cfg.PointsPerEquation,
		LQN:               s.cfg.LQN,
	}
	sm, _, err := hybrid.BuildServerMix(cfg, arch, key.buyFrac())
	if err != nil {
		return nil, err
	}
	return &modelEntry{pred: hist.ModelSet{arch.Name: sm}, sm: sm}, nil
}

// laplaceScale returns the §7.1 percentile scale of the hybrid key
// whose model is sm: the configured constant, or the key's evidence — a
// calibration against a fixed-seed simulator run at the model's
// saturated population under the same mix, the §7.1 procedure the
// offline suite uses. The key's first percentile request pays for that
// run and the scale is kept for the life of the Service. Like a build,
// the run holds a build slot, one flight a key; a kept scale takes
// neither. cold reports whether this request waited on the run.
func (s *Service) laplaceScale(ctx context.Context, key modelKey, sm *hist.ServerModel) (ev evidence, cold bool, err error) {
	if s.cfg.LaplaceB != 0 {
		return evidence{laplaceB: s.cfg.LaplaceB}, false, nil
	}
	if ev, ok := s.evidence.Lookup(key); ok {
		return ev, false, nil
	}
	arch, err := s.arch(key.arch)
	if err != nil {
		return ev, true, err
	}
	ev, err = shareFlight(ctx, func() (evidence, error) {
		return s.evidence.DoCtx(ctx, key, func() (evidence, error) {
			slot, err := s.store.slots.acquire(ctx)
			if err != nil {
				return evidence{}, err
			}
			defer s.store.slots.release(slot)
			start := time.Now()
			b, err := s.calibrateScale(arch, key.buyFrac(), sm)
			return evidence{laplaceB: b, calibration: time.Since(start)}, err
		})
	})
	return ev, true, err
}

// buildRegress is the cheap tier's cold path: fit a black-box
// regression model for the key to its evidence, a handful of short
// seeded simulator runs. No layered solves, no calibration run — the
// start-up cost the four-family comparison shows is a fraction of
// hybrid's, traded against polynomial rather than model-based
// accuracy. The training seed is fixed, so equal keys always serve
// bit-identical fits.
func (s *Service) buildRegress(key modelKey, arch workload.ServerArch) (*modelEntry, error) {
	cfg := regress.TrainConfig{
		Archs:         []workload.ServerArch{arch},
		BuyFracs:      []float64{key.buyFrac()},
		SamplesPerMix: regressTrainSamples,
		Seed:          calibrationSeed,
		Opt: trade.MeasureOptions{
			WarmUp:   s.cfg.RegressSimSeconds / 4,
			Duration: s.cfg.RegressSimSeconds,
		},
		Fit: regress.FitConfig{Degree: regressDegree},
	}
	ev, err := s.evidence.Do(key, func() (evidence, error) {
		samples, err := regress.Measure(cfg)
		if err != nil {
			return evidence{}, err
		}
		recordSimulated(len(samples), cfg.SimSeconds(len(samples)))
		return evidence{samples: samples}, nil
	})
	if err != nil {
		return nil, err
	}
	m, err := regress.FitMeasured(cfg, ev.samples)
	if err != nil {
		return nil, err
	}
	return &modelEntry{pred: m}, nil
}

// The §8.5 start-up delay in the currency the families study prints:
// simulator runs the keys paid for — a regress key's first build, a
// hybrid key's first percentile request — and the simulated seconds
// they covered (warm-up included; each measurement rounded to whole
// seconds). A key pays once, so neither moves on a rebuild.
var (
	serveSimulatorRuns    = obs.DeclareCounter("serve_simulator_runs")
	serveSimulatedSeconds = obs.DeclareCounter("serve_simulated_seconds")
)

// recordSimulated accounts for one measurement: runs simulator runs
// covering simSeconds simulated seconds between them.
func recordSimulated(runs int, simSeconds float64) {
	serveSimulatorRuns.Add(uint64(runs))
	serveSimulatedSeconds.Add(uint64(simSeconds + 0.5))
}

// calibrateScale runs the simulator at ~1.4× the model's saturation
// population under the key's mix and fits the Laplace scale to the
// measured response-time samples around their mean. The seed is fixed
// and the window configured once, so the same key always calibrates
// the same scale — served numbers stay reproducible.
func (s *Service) calibrateScale(arch workload.ServerArch, buyFrac float64, sm *hist.ServerModel) (float64, error) {
	n := int(1.4 * sm.SaturationClients())
	if n < 1 {
		n = 1
	}
	cfg := trade.Config{
		Server:   arch,
		DB:       s.cfg.DB,
		Demands:  s.cfg.Demands,
		Load:     workload.MixLoad(n, buyFrac),
		Seed:     calibrationSeed,
		WarmUp:   s.cfg.CalibrationSimSeconds / 4,
		Duration: s.cfg.CalibrationSimSeconds,
	}
	res, err := trade.Run(cfg)
	if err != nil {
		return 0, err
	}
	recordSimulated(1, cfg.WarmUp+cfg.Duration)
	// Hand over the per-class samples in sorted class order:
	// CalibrateScale sums deviations in the order given, and float
	// addition is not associative, so map-iteration order would perturb
	// the last few digits of b between otherwise-identical builds.
	names := make([]string, 0, len(res.PerClass))
	for name := range res.PerClass {
		names = append(names, name)
	}
	sort.Strings(names)
	samples := make([][]float64, len(names))
	for i, name := range names {
		samples[i] = res.PerClass[name].Samples
	}
	return rtdist.CalibrateScale(res.MeanRT, samples...)
}
