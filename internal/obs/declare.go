package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// A declared metric is a package-level handle that names one metric and
// stands in for it in the code that bumps it:
//
//	var simEventsFired = obs.DeclareCounter("sim_events_fired")
//
// A handle starts unbound, and every update on an unbound handle is a
// no-op that costs one pointer load and a nil check. Bind binds every
// handle declared in the process to a registry at once, or unbinds them
// all; nothing else turns a metric on or off.

// handle is what the four declared kinds share: a name, and the
// registry's metric the handle is bound to, nil while unbound.
type handle[M any] struct {
	name string
	m    atomic.Pointer[M]
}

// Bound reports whether the handle is bound to a registry. Code that
// computes before it adds checks one handle once, and skips the
// computing when it is unbound.
func (h *handle[M]) Bound() bool { return h.m.Load() != nil }

// Metric returns the metric the handle is bound to, nil (a no-op
// metric) while unbound. Updates that must land in one registry even
// when Bind runs between them, such as a gauge's +1 and its matching
// -1, go through one Metric call.
func (h *handle[M]) Metric() *M { return h.m.Load() }

// CounterVar is a declared Counter.
type CounterVar struct{ handle[Counter] }

// Inc adds one.
func (v *CounterVar) Inc() { v.m.Load().Inc() }

// Add adds n.
func (v *CounterVar) Add(n uint64) { v.m.Load().Add(n) }

func (v *CounterVar) bind(r *Registry) { v.m.Store(r.Counter(v.name)) }

// GaugeVar is a declared Gauge.
type GaugeVar struct{ handle[Gauge] }

// Add adjusts the gauge by d.
func (v *GaugeVar) Add(d int64) { v.m.Load().Add(d) }

func (v *GaugeVar) bind(r *Registry) { v.m.Store(r.Gauge(v.name)) }

// MaxGaugeVar is a declared MaxGauge.
type MaxGaugeVar struct{ handle[MaxGauge] }

// Observe raises the high-water mark to x if x exceeds it.
func (v *MaxGaugeVar) Observe(x int64) { v.m.Load().Observe(x) }

func (v *MaxGaugeVar) bind(r *Registry) { v.m.Store(r.MaxGauge(v.name)) }

// HistogramVar is a declared Histogram with its bucket bounds.
type HistogramVar struct {
	handle[Histogram]
	bounds []float64
}

// Observe records x.
func (v *HistogramVar) Observe(x float64) { v.m.Load().Observe(x) }

// Start begins timing a stage: the current time while the handle is
// bound, the zero time (and no clock reading) while it is not.
func (v *HistogramVar) Start() time.Time {
	if !v.Bound() {
		return time.Time{}
	}
	return time.Now()
}

// ObserveSince records the seconds since start, a time Start returned.
// A zero start, a stage begun unbound, records nothing.
func (v *HistogramVar) ObserveSince(start time.Time) {
	if start.IsZero() {
		return
	}
	v.Observe(time.Since(start).Seconds())
}

func (v *HistogramVar) bind(r *Registry) { v.m.Store(r.Histogram(v.name, v.bounds...)) }

// binder is a declared handle of any kind.
type binder interface{ bind(*Registry) }

var (
	declaredMu sync.Mutex
	declared   []binder
	boundTo    *Registry // what Bind last bound the handles to
)

func declare[B binder](b B) B {
	declaredMu.Lock()
	defer declaredMu.Unlock()
	declared = append(declared, b)
	b.bind(boundTo)
	return b
}

// DeclareCounter declares the counter name.
func DeclareCounter(name string) *CounterVar {
	return declare(&CounterVar{handle[Counter]{name: name}})
}

// DeclareGauge declares the gauge name.
func DeclareGauge(name string) *GaugeVar {
	return declare(&GaugeVar{handle[Gauge]{name: name}})
}

// DeclareMaxGauge declares the high-water gauge name.
func DeclareMaxGauge(name string) *MaxGaugeVar {
	return declare(&MaxGaugeVar{handle[MaxGauge]{name: name}})
}

// DeclareHistogram declares the histogram name over the given
// ascending upper bounds.
func DeclareHistogram(name string, bounds ...float64) *HistogramVar {
	return declare(&HistogramVar{handle[Histogram]{name: name}, bounds})
}

// Bind binds every declared handle to r, registering each one's metric
// there if r does not hold it yet, or unbinds every handle when r is
// nil. It is the process's one instrumentation switch; safe to call
// while other goroutines update the handles.
func Bind(r *Registry) {
	declaredMu.Lock()
	defer declaredMu.Unlock()
	boundTo = r
	for _, b := range declared {
		b.bind(r)
	}
}
