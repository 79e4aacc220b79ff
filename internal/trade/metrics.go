package trade

import (
	"sync/atomic"

	"perfpred/internal/obs"
)

// tradeMetrics are process-wide Trade-simulator counters, aggregated
// over every run. Each simulator keeps plain per-instance counters
// (one simulator is strictly single-goroutine) and flushes them into
// these atomics once per run, at collect time, so the request loop's
// zero-allocation guarantee is untouched.
type tradeMetrics struct {
	runs        *obs.Counter // single-engine simulators built (Run, RunAdaptive, Windows)
	completed   *obs.Counter // measured request completions
	poolReuses  *obs.Counter // request records served from the free list
	poolAllocs  *obs.Counter // request records newly allocated
	cacheHits   *obs.Counter // session-cache hits (measured window)
	cacheMisses *obs.Counter // session-cache misses (measured window)
	cacheEvicts *obs.Counter // session-cache evictions (measured window)

	adaptiveRuns         *obs.Counter // RunAdaptive invocations
	adaptiveBatches      *obs.Counter // batch-means batches accumulated
	adaptiveNonConverged *obs.Counter // adaptive runs stopped by the duration cap
}

var metrics atomic.Pointer[tradeMetrics]

// EnableMetrics registers the Trade simulator's counters on r and turns
// instrumentation on for every run in the process. A nil r disables
// instrumentation again.
func EnableMetrics(r *obs.Registry) {
	if r == nil {
		metrics.Store(nil)
		return
	}
	metrics.Store(&tradeMetrics{
		runs:                 r.Counter("trade_runs"),
		completed:            r.Counter("trade_requests_completed"),
		poolReuses:           r.Counter("trade_request_pool_reuses"),
		poolAllocs:           r.Counter("trade_request_pool_allocs"),
		cacheHits:            r.Counter("trade_cache_hits"),
		cacheMisses:          r.Counter("trade_cache_misses"),
		cacheEvicts:          r.Counter("trade_cache_evicts"),
		adaptiveRuns:         r.Counter("trade_adaptive_runs"),
		adaptiveBatches:      r.Counter("trade_adaptive_batches"),
		adaptiveNonConverged: r.Counter("trade_adaptive_nonconverged"),
	})
}

// recordRun counts one single-engine simulator at construction.
func recordRun() {
	if m := metrics.Load(); m != nil {
		m.runs.Inc()
	}
}

// flushMetrics publishes one run's totals. Called from collect, once
// per simulator, with the measured completion count already summed.
func (s *simulator) flushMetrics(totalCompleted int) {
	m := metrics.Load()
	if m == nil {
		return
	}
	m.completed.Add(uint64(totalCompleted))
	m.poolReuses.Add(s.poolReuses)
	m.poolAllocs.Add(s.poolAllocs)
	for _, app := range s.apps {
		if app.cache != nil {
			m.cacheHits.Add(app.cache.hits)
			m.cacheMisses.Add(app.cache.misses)
			m.cacheEvicts.Add(app.cache.evicts)
		}
	}
}

// recordAdaptive publishes one adaptive run's stopping diagnostics.
func recordAdaptive(batches int, converged bool) {
	m := metrics.Load()
	if m == nil {
		return
	}
	m.adaptiveRuns.Inc()
	m.adaptiveBatches.Add(uint64(batches))
	if !converged {
		m.adaptiveNonConverged.Inc()
	}
}
