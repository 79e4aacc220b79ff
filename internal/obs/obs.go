// Package obs is the repo's dependency-free observability layer:
// atomic counters, gauges and fixed-bucket histograms with a
// zero-allocation hot path, a named registry, and a snapshot API.
//
// The design follows the USE/RED-style counter sets every production
// serving stack carries, in the spirit of the measurement
// infrastructures the source paper builds on (PACE/HYDRA request-path
// accounting): hot paths bump metrics at atomic-add cost.
//
// A package declares each of its metrics once, as a package-level
// handle beside the code that bumps it (DeclareCounter, DeclareGauge,
// DeclareMaxGauge, DeclareHistogram). Bind is the process's one
// switch: it binds every declared handle to a registry, or unbinds them
// all. Off is an unbound handle — an update on one is a pointer load
// and a nil check, and a histogram's stage timer takes no clock
// reading — so instrumented code never asks whether observability is
// on, except to skip computing a flush whose every handle is unbound
// (Bound).
//
// The metric types themselves are nil-safe: every method on a nil
// *Counter, *Gauge, *MaxGauge or *Histogram is a no-op, which is what
// an unbound handle resolves to.
package obs

import (
	"math"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use; a nil Counter discards all updates.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. No-op on a nil receiver.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. The zero value is ready to
// use; a nil Gauge discards all updates.
type Gauge struct {
	v atomic.Int64
}

// Add adjusts the gauge by d. No-op on a nil receiver.
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// MaxGauge is a high-water mark: Observe keeps the largest value seen.
// The zero value is ready to use; a nil MaxGauge discards all updates.
type MaxGauge struct {
	v atomic.Int64
}

// Observe raises the high-water mark to v if v exceeds it. No-op on a
// nil receiver.
func (m *MaxGauge) Observe(v int64) {
	if m == nil {
		return
	}
	for {
		cur := m.v.Load()
		if v <= cur {
			return
		}
		if m.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// value returns the high-water mark (0 on a nil receiver).
func (m *MaxGauge) value() int64 {
	if m == nil {
		return 0
	}
	return m.v.Load()
}

// Histogram is a fixed-bucket histogram: observations land in the
// first bucket whose upper bound is >= the value, with an overflow
// bucket past the last bound. Buckets are fixed at construction, so
// Observe performs no allocation — a branchless-ish linear scan over a
// small bound slice plus two atomic adds.
type Histogram struct {
	bounds  []float64       // ascending upper bounds
	counts  []atomic.Uint64 // len(bounds)+1; last = overflow
	n       atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
}

// newHistogram builds a histogram over the given ascending upper
// bounds. It panics on unsorted or empty bounds — histogram shapes are
// compile-time decisions, never data-dependent.
func newHistogram(bounds ...float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
	return h
}

// DurationBuckets is the default bound set for wall-clock phases, in
// seconds: 100µs to ~100s in roughly 1-3-10 steps.
func DurationBuckets() []float64 {
	return []float64{1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1, 3, 10, 30, 100}
}

// Observe records v. No-op on a nil receiver; never allocates.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.n.Add(1)
	for {
		cur := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(cur) + v)
		if h.sumBits.CompareAndSwap(cur, next) {
			return
		}
	}
}

// count returns the number of observations (0 on a nil receiver).
func (h *Histogram) count() uint64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// sum returns the sum of observations (0 on a nil receiver).
func (h *Histogram) sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}
