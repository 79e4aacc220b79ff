// Package scenario is the declarative workload-spec subsystem: it
// compiles spec files (stdlib-parsed JSON, or the Go builder API in
// builder.go) into the traffic generators the whole stack consumes.
//
// A spec declares client cohorts. Each cohort carries its own
// request mix, SLA class and think-time distribution (exponential,
// lognormal or deterministic), and one arrival process:
//
//   - closed: a fixed population of think-loop clients — the paper's
//     §3.1 regime, generalised beyond exponential think times;
//   - poisson: an open stream at a constant base rate (§8.1);
//   - mmpp: a Markov-modulated Poisson process with two or more
//     modulating states (rate + mean exponential dwell each, visited
//     cyclically) — bursty arrivals no steady-state model captures;
//   - trace: replay of a recorded CSV request stream.
//
// Open processes (poisson, mmpp) optionally modulate their rate by a
// temporal pattern: multi-period piecewise rates, a diurnal sinusoid,
// or a flash-sale spike with ramp/hold/decay phases. Patterns are
// multiplicative on the base rate, so one spec describes both the
// steady regime the paper's predictors assume and the transients they
// were never evaluated under.
//
// Compile resolves a validated Spec against the request-type demand
// table it will run under; the compiled form is read-only and shared,
// while per-run generator state (Gen) is split per consumer
// with sim.SplitSeed-stable streams, so spec-driven runs are
// bit-identical at any shard count.
package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
)

// Distribution names accepted by DistSpec.Dist.
const (
	DistExponential   = "exponential"
	DistLognormal     = "lognormal"
	DistDeterministic = "deterministic"
)

// Arrival-process names accepted by ArrivalSpec.Process.
const (
	ProcClosed  = "closed"
	ProcPoisson = "poisson"
	ProcMMPP    = "mmpp"
	ProcTrace   = "trace"
)

// Pattern kinds accepted by PatternSpec.Kind.
const (
	PatternPiecewise = "piecewise"
	PatternDiurnal   = "diurnal"
	PatternFlash     = "flash"
)

// Spec is one declarative workload scenario: a named set of client
// cohorts. The zero value is invalid; build specs with the builder
// API or parse them from JSON.
type Spec struct {
	// Name identifies the scenario in reports and tables.
	Name string `json:"name"`
	// Cohorts are the scenario's client cohorts, in declaration order
	// (the order predictors and routers see them in).
	Cohorts []CohortSpec `json:"cohorts"`
}

// CohortSpec is one client cohort: a request mix, an SLA class and an
// arrival process.
type CohortSpec struct {
	// Name is the cohort's service-class name (unique within a spec).
	Name string `json:"name"`
	// Mix maps request-type names to their traffic fractions (must sum
	// to 1). Trace cohorts may omit it: their mix is derived from the
	// recorded stream's composition.
	Mix map[string]float64 `json:"mix,omitempty"`
	// GoalRT is the SLA response-time goal in seconds (0 = none).
	GoalRT float64 `json:"goal_rt,omitempty"`
	// GoalPercentile is the fraction of requests that must meet GoalRT
	// for a percentile SLA (0 = the goal is on the mean).
	GoalPercentile float64 `json:"goal_percentile,omitempty"`
	// Think is the think-time distribution of a closed cohort's
	// clients; ignored (and rejected) for open processes.
	Think *DistSpec `json:"think,omitempty"`
	// Arrival selects and parameterises the arrival process.
	Arrival ArrivalSpec `json:"arrival"`
}

// DistSpec describes a positive-valued distribution.
type DistSpec struct {
	// Dist is one of exponential, lognormal, deterministic.
	Dist string `json:"dist"`
	// Mean is the distribution mean, seconds.
	Mean float64 `json:"mean"`
	// CV is the coefficient of variation (std dev / mean); required
	// for lognormal, rejected elsewhere (exponential has CV 1 and
	// deterministic 0 by construction).
	CV float64 `json:"cv,omitempty"`
}

// ArrivalSpec describes one cohort's arrival process.
type ArrivalSpec struct {
	// Process is one of closed, poisson, mmpp, trace.
	Process string `json:"process"`
	// Clients is the closed population size (closed only).
	Clients int `json:"clients,omitempty"`
	// Rate is the Poisson base rate, requests/second (poisson only).
	Rate float64 `json:"rate,omitempty"`
	// States are the MMPP modulating states, visited cyclically in
	// order (mmpp only; at least 2).
	States []MMPPStateSpec `json:"states,omitempty"`
	// Trace is the CSV trace path, resolved relative to the spec file
	// (trace only). Lines are "time_seconds,request_type"; a header
	// line and #-comments are skipped.
	Trace string `json:"trace,omitempty"`
	// Loop replays the trace cyclically instead of once (trace only).
	Loop bool `json:"loop,omitempty"`
	// CycleSeconds is the loop period of a looping trace; 0 derives it
	// from the last recorded arrival plus the mean recorded gap.
	CycleSeconds float64 `json:"cycle_seconds,omitempty"`
	// Pattern modulates an open rate process (poisson, mmpp) over
	// time; nil means the constant base rate.
	Pattern *PatternSpec `json:"pattern,omitempty"`
}

// MMPPStateSpec is one MMPP modulating state.
type MMPPStateSpec struct {
	// Rate is the state's Poisson arrival rate, requests/second (may
	// be 0 for silent states; at least one state must be positive).
	Rate float64 `json:"rate"`
	// MeanDwell is the state's mean exponential dwell time, seconds.
	MeanDwell float64 `json:"mean_dwell"`
}

// PatternSpec is a temporal rate-multiplier curve. Scale 1 is the
// base rate.
type PatternSpec struct {
	// Kind is one of piecewise, diurnal, flash.
	Kind string `json:"kind"`

	// Periods are the piecewise pattern's segments in order; each
	// holds its scale for its duration. After the last segment a
	// non-cycling pattern reverts to scale 1.
	Periods []PeriodSpec `json:"periods,omitempty"`
	// Cycle repeats the piecewise segments forever.
	Cycle bool `json:"cycle,omitempty"`

	// Period is the diurnal cycle length, seconds.
	Period float64 `json:"period,omitempty"`
	// Amplitude is the diurnal relative swing in [0,1]: scale(t) = 1 +
	// Amplitude·sin(2π(t+Phase)/Period).
	Amplitude float64 `json:"amplitude,omitempty"`
	// Phase shifts the diurnal curve, seconds.
	Phase float64 `json:"phase,omitempty"`

	// Start is the flash-sale onset, seconds from run start.
	Start float64 `json:"start,omitempty"`
	// Ramp is the linear climb 1 → Peak, seconds.
	Ramp float64 `json:"ramp,omitempty"`
	// Hold keeps the scale at Peak, seconds.
	Hold float64 `json:"hold,omitempty"`
	// Decay is the linear fall Peak → 1, seconds.
	Decay float64 `json:"decay,omitempty"`
	// Peak is the spike's scale multiplier (≥ 1).
	Peak float64 `json:"peak,omitempty"`
}

// PeriodSpec is one piecewise-pattern segment.
type PeriodSpec struct {
	// Duration is the segment length, seconds.
	Duration float64 `json:"duration"`
	// Scale is the rate multiplier held across the segment (≥ 0).
	Scale float64 `json:"scale"`
}

// parse decodes a JSON spec. Unknown fields are rejected, so typos in
// spec files fail loudly instead of silently configuring nothing.
// Parse does not validate; Validate and Compile do.
func parse(data []byte) (*Spec, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: parsing spec: %w", err)
	}
	// Reject trailing garbage after the spec object.
	if dec.More() {
		return nil, errors.New("scenario: trailing data after spec object")
	}
	return &s, nil
}

// JSON re-emits the spec as indented JSON. Parse(s.JSON()) round-trips
// to an identical Spec, which the round-trip tests pin.
func (s *Spec) JSON() ([]byte, error) {
	out, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("scenario: emitting spec: %w", err)
	}
	return append(out, '\n'), nil
}

// validate reports the first structural problem with the spec. It
// checks everything that does not need the demand table or the trace
// files; Compile re-runs it and adds those.
func (s *Spec) validate() error {
	if s.Name == "" {
		return errors.New("scenario: spec needs a name")
	}
	if len(s.Cohorts) == 0 {
		return errors.New("scenario: spec needs at least one cohort")
	}
	seen := make(map[string]bool, len(s.Cohorts))
	for i := range s.Cohorts {
		c := &s.Cohorts[i]
		if err := c.validate(); err != nil {
			return err
		}
		if seen[c.Name] {
			return fmt.Errorf("scenario: duplicate cohort name %q", c.Name)
		}
		seen[c.Name] = true
	}
	return nil
}

// minDwellGaps is the shortest mean dwell an MMPP state may have, in
// mean arrival gaps of the chain's fastest state. Arrivals cannot see a
// shorter state, and a generator walks the chain one state at a time:
// at mean_dwell 1e-300 a single Gen.Next never returns.
const minDwellGaps = 1e-3

func (c *CohortSpec) validate() error {
	if c.Name == "" {
		return errors.New("scenario: cohort needs a name")
	}
	if c.GoalRT < 0 {
		return fmt.Errorf("scenario: cohort %q has negative goal_rt", c.Name)
	}
	if c.GoalPercentile != 0 && (c.GoalPercentile < 0 || c.GoalPercentile >= 1) {
		return fmt.Errorf("scenario: cohort %q goal_percentile %v outside [0,1)", c.Name, c.GoalPercentile)
	}
	a := &c.Arrival
	if a.Process != ProcTrace {
		if err := validateMix(c.Name, c.Mix); err != nil {
			return err
		}
	} else if len(c.Mix) != 0 {
		return fmt.Errorf("scenario: trace cohort %q must not declare a mix (it is derived from the trace)", c.Name)
	}
	switch a.Process {
	case ProcClosed:
		if a.Clients <= 0 {
			return fmt.Errorf("scenario: closed cohort %q needs positive clients", c.Name)
		}
		if c.Think == nil {
			return fmt.Errorf("scenario: closed cohort %q needs a think distribution", c.Name)
		}
		if a.Rate != 0 || len(a.States) != 0 || a.Trace != "" {
			return fmt.Errorf("scenario: closed cohort %q must not set rate/states/trace", c.Name)
		}
		if a.Pattern != nil {
			return fmt.Errorf("scenario: closed cohort %q cannot carry a temporal pattern (patterns modulate open rates)", c.Name)
		}
	case ProcPoisson:
		if a.Rate <= 0 {
			return fmt.Errorf("scenario: poisson cohort %q needs a positive rate", c.Name)
		}
		if a.Clients != 0 || len(a.States) != 0 || a.Trace != "" {
			return fmt.Errorf("scenario: poisson cohort %q must not set clients/states/trace", c.Name)
		}
	case ProcMMPP:
		if len(a.States) < 2 {
			return fmt.Errorf("scenario: mmpp cohort %q needs at least 2 modulating states", c.Name)
		}
		maxRate := 0.0
		for i, st := range a.States {
			if st.Rate < 0 {
				return fmt.Errorf("scenario: mmpp cohort %q state %d has negative rate", c.Name, i)
			}
			if st.MeanDwell <= 0 {
				return fmt.Errorf("scenario: mmpp cohort %q state %d needs positive mean_dwell", c.Name, i)
			}
			if st.Rate > maxRate {
				maxRate = st.Rate
			}
		}
		if maxRate == 0 {
			return fmt.Errorf("scenario: mmpp cohort %q needs at least one state with positive rate", c.Name)
		}
		for i, st := range a.States {
			if st.MeanDwell*maxRate < minDwellGaps {
				return fmt.Errorf("scenario: mmpp cohort %q state %d: mean_dwell %v is under %v of the fastest state's mean arrival gap (1/%v s)",
					c.Name, i, st.MeanDwell, minDwellGaps, maxRate)
			}
		}
		if a.Clients != 0 || a.Rate != 0 || a.Trace != "" {
			return fmt.Errorf("scenario: mmpp cohort %q must not set clients/rate/trace", c.Name)
		}
	case ProcTrace:
		if a.Trace == "" {
			return fmt.Errorf("scenario: trace cohort %q needs a trace path", c.Name)
		}
		if a.Clients != 0 || a.Rate != 0 || len(a.States) != 0 {
			return fmt.Errorf("scenario: trace cohort %q must not set clients/rate/states", c.Name)
		}
		if a.Pattern != nil {
			return fmt.Errorf("scenario: trace cohort %q cannot carry a temporal pattern (the trace is the pattern)", c.Name)
		}
		if a.CycleSeconds < 0 {
			return fmt.Errorf("scenario: trace cohort %q has negative cycle_seconds", c.Name)
		}
		if a.CycleSeconds > 0 && !a.Loop {
			return fmt.Errorf("scenario: trace cohort %q sets cycle_seconds without loop", c.Name)
		}
	default:
		return fmt.Errorf("scenario: cohort %q has unknown arrival process %q", c.Name, a.Process)
	}
	if c.Think != nil {
		if a.Process != ProcClosed {
			return fmt.Errorf("scenario: open cohort %q must not declare a think distribution", c.Name)
		}
		if err := c.Think.validate(c.Name); err != nil {
			return err
		}
	}
	if a.Pattern != nil {
		if err := a.Pattern.validate(c.Name); err != nil {
			return err
		}
	}
	return nil
}

func validateMix(cohort string, mix map[string]float64) error {
	if len(mix) == 0 {
		return fmt.Errorf("scenario: cohort %q needs a non-empty mix", cohort)
	}
	var sum float64
	for rt, f := range mix {
		if rt == "" {
			return fmt.Errorf("scenario: cohort %q has an empty request-type name in its mix", cohort)
		}
		if f < 0 {
			return fmt.Errorf("scenario: cohort %q has negative mix fraction %v for %q", cohort, f, rt)
		}
		sum += f
	}
	if sum < 0.999 || sum > 1.001 {
		return fmt.Errorf("scenario: cohort %q mix fractions sum to %v, want 1", cohort, sum)
	}
	return nil
}

func (d *DistSpec) validate(cohort string) error {
	switch d.Dist {
	case DistExponential, DistDeterministic:
		if d.CV != 0 {
			return fmt.Errorf("scenario: cohort %q: %s distribution must not set cv", cohort, d.Dist)
		}
	case DistLognormal:
		if d.CV <= 0 {
			return fmt.Errorf("scenario: cohort %q: lognormal distribution needs positive cv", cohort)
		}
	default:
		return fmt.Errorf("scenario: cohort %q has unknown distribution %q", cohort, d.Dist)
	}
	if d.Mean <= 0 {
		return fmt.Errorf("scenario: cohort %q: %s distribution needs positive mean", cohort, d.Dist)
	}
	return nil
}

func (p *PatternSpec) validate(cohort string) error {
	switch p.Kind {
	case PatternPiecewise:
		if len(p.Periods) == 0 {
			return fmt.Errorf("scenario: cohort %q piecewise pattern needs at least one period", cohort)
		}
		anyPositive := false
		for i, per := range p.Periods {
			if per.Duration <= 0 {
				return fmt.Errorf("scenario: cohort %q piecewise period %d needs positive duration", cohort, i)
			}
			if per.Scale < 0 {
				return fmt.Errorf("scenario: cohort %q piecewise period %d has negative scale", cohort, i)
			}
			if per.Scale > 0 {
				anyPositive = true
			}
		}
		if p.Cycle && !anyPositive {
			return fmt.Errorf("scenario: cohort %q cycling piecewise pattern needs at least one positive scale", cohort)
		}
		if p.Period != 0 || p.Amplitude != 0 || p.Phase != 0 || p.Start != 0 || p.Ramp != 0 || p.Hold != 0 || p.Decay != 0 || p.Peak != 0 {
			return fmt.Errorf("scenario: cohort %q piecewise pattern must only set periods/cycle", cohort)
		}
	case PatternDiurnal:
		if p.Period <= 0 {
			return fmt.Errorf("scenario: cohort %q diurnal pattern needs positive period", cohort)
		}
		if p.Amplitude < 0 || p.Amplitude > 1 {
			return fmt.Errorf("scenario: cohort %q diurnal amplitude %v outside [0,1]", cohort, p.Amplitude)
		}
		if len(p.Periods) != 0 || p.Cycle || p.Start != 0 || p.Ramp != 0 || p.Hold != 0 || p.Decay != 0 || p.Peak != 0 {
			return fmt.Errorf("scenario: cohort %q diurnal pattern must only set period/amplitude/phase", cohort)
		}
	case PatternFlash:
		if p.Peak < 1 {
			return fmt.Errorf("scenario: cohort %q flash pattern needs peak ≥ 1", cohort)
		}
		if p.Start < 0 || p.Ramp < 0 || p.Hold < 0 || p.Decay < 0 {
			return fmt.Errorf("scenario: cohort %q flash pattern needs non-negative start/ramp/hold/decay", cohort)
		}
		if p.Ramp+p.Hold+p.Decay <= 0 {
			return fmt.Errorf("scenario: cohort %q flash pattern needs a positive ramp+hold+decay", cohort)
		}
		if len(p.Periods) != 0 || p.Cycle || p.Period != 0 || p.Amplitude != 0 || p.Phase != 0 {
			return fmt.Errorf("scenario: cohort %q flash pattern must only set start/ramp/hold/decay/peak", cohort)
		}
	default:
		return fmt.Errorf("scenario: cohort %q has unknown pattern kind %q", cohort, p.Kind)
	}
	return nil
}
