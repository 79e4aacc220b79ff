package serve

import (
	"sync/atomic"

	"perfpred/internal/obs"
)

// serveMetrics instrument the prediction service's hot path: request
// counts and latency per endpoint, model-cache traffic, cold-build
// cost, what the keys took from the simulator, layered solves, the
// build and solve queues, and the admission controller's rejection
// counters. They follow the repo convention:
// registered once via EnableMetrics, nil-safe, zero-allocation on the
// request path.
type serveMetrics struct {
	requests [numEndpoints]*obs.Counter
	seconds  [numEndpoints]*obs.Histogram

	cacheHits   *obs.Counter
	cacheMisses *obs.Counter
	cacheEvicts *obs.Counter

	builds       *obs.Counter
	buildSeconds *obs.Histogram

	// The §8.5 start-up delay in the currency the families study prints:
	// simulator runs the keys paid for — a regress key's first build, a
	// hybrid key's first percentile request — and the simulated seconds
	// they covered (warm-up included; each measurement rounded to whole
	// seconds). A key pays once, so neither moves on a rebuild.
	simulatorRuns    *obs.Counter
	simulatedSeconds *obs.Counter

	// layeredSolves counts method=lqn solves, one per probe of a capacity
	// search; exported as serve_batch_solves.
	layeredSolves *obs.Counter

	// Per admission queue: callers waiting for a slot or holding one.
	queueDepth [numQueues]*obs.Gauge
	queueHigh  [numQueues]*obs.MaxGauge

	inflight         *obs.Gauge
	rejectedOverload *obs.Counter
	deadlineExpired  *obs.Counter
	errors           *obs.Counter
}

// endpoint indexes the per-endpoint request counters and latency
// histograms.
type endpoint int

const (
	epPredict endpoint = iota
	epCapacity
	epAllocate
	numEndpoints
)

// queue indexes the admission queues' depth and high-water gauges.
type queue int

const (
	buildQueue queue = iota
	solveQueue
	numQueues
)

var metrics atomic.Pointer[serveMetrics]

// disabled is the no-op instance: every field is a nil obs handle, and
// the obs types discard updates on nil receivers. Loading it instead of
// a nil pointer lets hot-path call sites skip per-site nil checks.
var disabled serveMetrics

func init() { metrics.Store(&disabled) }

// EnableMetrics registers the serving counters and histograms on r and
// turns instrumentation on. A nil r disables instrumentation again.
func EnableMetrics(r *obs.Registry) {
	if r == nil {
		metrics.Store(&disabled)
		return
	}
	d := obs.DurationBuckets()
	// Request latencies sit well under DurationBuckets' 100µs floor on
	// a warm cache, so the serving histograms get a finer bottom end:
	// 10µs up to 10s.
	lat := []float64{1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1, 3, 10}
	metrics.Store(&serveMetrics{
		requests: [numEndpoints]*obs.Counter{
			epPredict:  r.Counter("serve_predict_requests"),
			epCapacity: r.Counter("serve_capacity_requests"),
			epAllocate: r.Counter("serve_allocate_requests"),
		},
		seconds: [numEndpoints]*obs.Histogram{
			epPredict:  r.Histogram("serve_predict_seconds", lat...),
			epCapacity: r.Histogram("serve_capacity_seconds", lat...),
			epAllocate: r.Histogram("serve_allocate_seconds", lat...),
		},

		cacheHits:   r.Counter("serve_cache_hits"),
		cacheMisses: r.Counter("serve_cache_misses"),
		cacheEvicts: r.Counter("serve_cache_evictions"),

		builds:       r.Counter("serve_builds"),
		buildSeconds: r.Histogram("serve_build_seconds", d...),

		simulatorRuns:    r.Counter("serve_simulator_runs"),
		simulatedSeconds: r.Counter("serve_simulated_seconds"),

		layeredSolves: r.Counter("serve_batch_solves"),
		queueDepth: [numQueues]*obs.Gauge{
			buildQueue: r.Gauge("serve_build_queue_depth"),
			solveQueue: r.Gauge("serve_solve_queue_depth"),
		},
		queueHigh: [numQueues]*obs.MaxGauge{
			buildQueue: r.MaxGauge("serve_build_queue_high_water"),
			solveQueue: r.MaxGauge("serve_solve_queue_high_water"),
		},

		inflight:         r.Gauge("serve_inflight_requests"),
		rejectedOverload: r.Counter("serve_rejected_overload"),
		deadlineExpired:  r.Counter("serve_deadline_expired"),
		errors:           r.Counter("serve_errors"),
	})
}

// simulated accounts for one measurement: runs simulator runs covering
// simSeconds simulated seconds between them.
func (m *serveMetrics) simulated(runs int, simSeconds float64) {
	m.simulatorRuns.Add(uint64(runs))
	m.simulatedSeconds.Add(uint64(simSeconds + 0.5))
}
