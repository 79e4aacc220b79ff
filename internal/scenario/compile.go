package scenario

import (
	"fmt"
	"os"
	"path/filepath"

	"perfpred/internal/workload"
)

// Cohort is one compiled client cohort: the read-only result of
// resolving a CohortSpec. Generators (Gen) hold the mutable per-run
// state; Cohort is safe to share across runs and shards.
type Cohort struct {
	// Class is the cohort's service class: name, mix, SLA goal, and —
	// for closed cohorts — the mean think time (so legacy consumers
	// that only understand exponential think times still see the right
	// first moment).
	Class workload.ServiceClass
	// Kind is the arrival process (ProcClosed, ProcPoisson, ProcMMPP,
	// ProcTrace).
	Kind string
	// Clients is the closed population size (closed cohorts only).
	Clients int
	// Think is the think-time distribution (closed cohorts only).
	Think *Dist
	// BaseRate is the unmodulated Poisson rate (poisson cohorts only).
	BaseRate float64
	// States are the MMPP modulating states (mmpp cohorts only).
	States []MMPPStateSpec
	// Pattern modulates the open rate over time; nil means constant.
	Pattern *Pattern
	// Trace is the loaded replay trace (trace cohorts only).
	Trace *Trace
	// MeanRate is the stationary mean arrival rate in requests/second
	// for open cohorts (pattern-free; multiply by Pattern.meanScale for
	// a horizon-specific mean). 0 for closed cohorts.
	MeanRate float64
	// MaxRate bounds the instantaneous arrival rate — the thinning
	// envelope generators reject against. 0 for closed cohorts.
	MaxRate float64
}

// open reports whether the cohort is an open arrival stream.
func (c *Cohort) open() bool { return c.Kind != ProcClosed }

// rateAt returns the cohort's expected instantaneous arrival rate at
// time t: the pattern-modulated base rate for poisson, the
// pattern-modulated stationary rate for mmpp (the modulation states
// average out in expectation), and the trace's local empirical rate
// for trace cohorts. 0 for closed cohorts, whose rate is
// load-dependent.
func (c *Cohort) rateAt(t float64) float64 {
	switch c.Kind {
	case ProcPoisson:
		return c.BaseRate * c.Pattern.scale(t)
	case ProcMMPP:
		return c.MeanRate * c.Pattern.scale(t)
	case ProcTrace:
		return c.Trace.rateAt(t)
	}
	return 0
}

// Compiled is a validated, resolved scenario ready to drive
// generators. It is read-only after Compile.
type Compiled struct {
	// Name is the scenario name from the spec.
	Name string
	// Cohorts are the compiled cohorts in spec order.
	Cohorts []*Cohort
}

// Load reads, parses and compiles a JSON spec file. Trace paths
// inside the spec resolve relative to the spec file's directory.
func Load(path string) (*Compiled, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: reading spec: %w", err)
	}
	s, err := parse(data)
	if err != nil {
		return nil, err
	}
	return s.compile(filepath.Dir(path))
}

// compile validates the spec and resolves it into a Compiled
// scenario. baseDir anchors relative trace paths ("" means the
// current directory).
func (s *Spec) compile(baseDir string) (*Compiled, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	out := &Compiled{Name: s.Name}
	for i := range s.Cohorts {
		cs := &s.Cohorts[i]
		c := &Cohort{
			Kind: cs.Arrival.Process,
			Class: workload.ServiceClass{
				Name:           cs.Name,
				Mix:            compileMix(cs.Mix),
				GoalRT:         cs.GoalRT,
				GoalPercentile: cs.GoalPercentile,
			},
			Pattern: compilePattern(cs.Arrival.Pattern),
		}
		switch cs.Arrival.Process {
		case ProcClosed:
			c.Clients = cs.Arrival.Clients
			c.Think = compileDist(cs.Think)
			c.Class.ThinkTimeMean = c.Think.Mean()
		case ProcPoisson:
			c.BaseRate = cs.Arrival.Rate
			c.MeanRate = cs.Arrival.Rate
			c.MaxRate = cs.Arrival.Rate * c.Pattern.maxScale()
		case ProcMMPP:
			c.States = append([]MMPPStateSpec(nil), cs.Arrival.States...)
			var area, dwell, maxRate float64
			for _, st := range c.States {
				area += st.Rate * st.MeanDwell
				dwell += st.MeanDwell
				if st.Rate > maxRate {
					maxRate = st.Rate
				}
			}
			c.MeanRate = area / dwell
			c.MaxRate = maxRate * c.Pattern.maxScale()
		case ProcTrace:
			path := cs.Arrival.Trace
			if !filepath.IsAbs(path) && baseDir != "" {
				path = filepath.Join(baseDir, path)
			}
			tr, err := loadTrace(path, cs.Arrival.Loop, cs.Arrival.CycleSeconds)
			if err != nil {
				return nil, fmt.Errorf("scenario: cohort %q: %w", cs.Name, err)
			}
			c.Trace = tr
			c.Class.Mix = tr.mix()
			c.MeanRate = tr.meanRate()
			c.MaxRate = tr.peakRate()
		}
		out.Cohorts = append(out.Cohorts, c)
	}
	return out, nil
}

func compileMix(m map[string]float64) workload.Mix {
	if len(m) == 0 {
		return nil
	}
	mix := make(workload.Mix, len(m))
	for rt, f := range m {
		mix[workload.RequestType(rt)] = f
	}
	return mix
}

// Workload maps the scenario onto the static workload description the
// predictors and the resource manager consume: closed cohorts keep
// their client populations, open cohorts become fixed-rate streams at
// their stationary mean rate. Transient structure (patterns, MMPP
// modulation, trace timing) is deliberately erased — that is exactly
// the information the steady-state predictors cannot see, and the
// transient-error study quantifies what that costs.
func (c *Compiled) Workload() workload.Workload {
	w := make(workload.Workload, 0, len(c.Cohorts))
	for _, co := range c.Cohorts {
		p := workload.Population{Class: co.Class}
		if co.open() {
			p.ArrivalRate = co.MeanRate
		} else {
			p.Clients = co.Clients
		}
		w = append(w, p)
	}
	return w
}

// meanRate integrates RateAt over [t0, t1) by midpoint sampling.
func (c *Cohort) meanRate(t0, t1 float64) float64 {
	if t1 <= t0 {
		return 0
	}
	const steps = 64
	dt := (t1 - t0) / steps
	var sum float64
	for i := 0; i < steps; i++ {
		sum += c.rateAt(t0 + (float64(i)+0.5)*dt)
	}
	return sum / steps
}

// MeanOfferedRate is the cohorts' summed expected arrival rate (open
// cohorts only; closed populations self-limit), averaged over [t0, t1)
// — the per-window offered load the transient study compares
// predictions against.
func (c *Compiled) MeanOfferedRate(t0, t1 float64) float64 {
	var sum float64
	for _, co := range c.Cohorts {
		sum += co.meanRate(t0, t1)
	}
	return sum
}

// WorkloadOver is Workload with every open cohort at its mean rate
// over [t0, t1) instead of its stationary mean: what a steady-state
// predictor is told about one window of the scenario.
func (c *Compiled) WorkloadOver(t0, t1 float64) workload.Workload {
	w := c.Workload()
	for i, co := range c.Cohorts {
		if co.open() {
			w[i].ArrivalRate = co.meanRate(t0, t1)
		}
	}
	return w
}
