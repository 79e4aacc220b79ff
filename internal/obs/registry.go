package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
)

// Registry is a named collection of metrics. Accessors are
// register-or-get: the first call for a name creates the metric, later
// calls return the same instance, so subsystems can look metrics up by
// name without start-up ordering constraints.
//
// A nil *Registry is valid everywhere and returns nil metrics, which
// are themselves nil-safe no-ops: Bind(nil) unbinds a handle by binding
// it to one of those.
//
// Metric naming convention: `<subsystem>_<noun>[_<qualifier>]`, snake
// case, e.g. `lqn_solver_warm_hits`, `sim_events_fired`,
// `trade_cache_misses`. Counters count events since process start;
// gauges are instantaneous; `*_high_water` max-gauges are monotone
// maxima; histograms ending in `_seconds` hold wall-clock phases.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	maxGauges  map[string]*MaxGauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		maxGauges:  make(map[string]*MaxGauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. A nil
// registry returns a nil (no-op) gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// MaxGauge returns the named high-water gauge, creating it on first
// use. A nil registry returns a nil (no-op) gauge.
func (r *Registry) MaxGauge(name string) *MaxGauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.maxGauges[name]
	if !ok {
		m = &MaxGauge{}
		r.maxGauges[name] = m
	}
	return m
}

// Histogram returns the named histogram, creating it with the given
// bounds on first use. Later calls ignore bounds and return the
// existing instance. A nil registry returns a nil (no-op) histogram.
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = newHistogram(bounds...)
		r.histograms[name] = h
	}
	return h
}

// HistogramSnapshot is one histogram's state at snapshot time. The
// overflow count (observations above the last bound) is kept out of
// Buckets so the snapshot round-trips through JSON without +Inf.
type HistogramSnapshot struct {
	Bounds   []float64 `json:"bounds"`
	Buckets  []uint64  `json:"buckets"`
	Overflow uint64    `json:"overflow"`
	Count    uint64    `json:"count"`
	Sum      float64   `json:"sum"`
}

// Snapshot is a point-in-time copy of every metric in a registry,
// suitable for JSON encoding (the run-report format) or text dumping.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	MaxGauges  map[string]int64             `json:"max_gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot copies the current value of every metric. A nil registry
// yields an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]int64{},
		MaxGauges:  map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, m := range r.maxGauges {
		s.MaxGauges[name] = m.value()
	}
	for name, h := range r.histograms {
		hs := HistogramSnapshot{
			Bounds:  append([]float64(nil), h.bounds...),
			Buckets: make([]uint64, len(h.bounds)),
			Count:   h.count(),
			Sum:     h.sum(),
		}
		for i := range h.bounds {
			hs.Buckets[i] = h.counts[i].Load()
		}
		hs.Overflow = h.counts[len(h.bounds)].Load()
		s.Histograms[name] = hs
	}
	return s
}

// WriteJSON writes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteText writes the snapshot in the plain-text exposition format
// served at /metrics: one `name value` line per scalar metric plus
// `name_bucket{le=...}` lines per histogram, sorted by name for a
// stable diffable dump.
func (s Snapshot) WriteText(w io.Writer) error {
	type line struct{ name, value string }
	var lines []line
	for name, v := range s.Counters {
		lines = append(lines, line{name, fmt.Sprintf("%d", v)})
	}
	for name, v := range s.Gauges {
		lines = append(lines, line{name, fmt.Sprintf("%d", v)})
	}
	for name, v := range s.MaxGauges {
		lines = append(lines, line{name, fmt.Sprintf("%d", v)})
	}
	for name, h := range s.Histograms {
		for i, b := range h.Bounds {
			lines = append(lines, line{
				fmt.Sprintf("%s_bucket{le=%q}", name, fmt.Sprintf("%g", b)),
				fmt.Sprintf("%d", h.Buckets[i]),
			})
		}
		lines = append(lines, line{fmt.Sprintf("%s_bucket{le=\"+Inf\"}", name), fmt.Sprintf("%d", h.Overflow)})
		lines = append(lines, line{name + "_count", fmt.Sprintf("%d", h.Count)})
		lines = append(lines, line{name + "_sum", fmt.Sprintf("%g", h.Sum)})
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i].name < lines[j].name })
	for _, l := range lines {
		if _, err := fmt.Fprintf(w, "%s %s\n", l.name, l.value); err != nil {
			return err
		}
	}
	return nil
}
