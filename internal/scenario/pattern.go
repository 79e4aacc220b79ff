package scenario

import "math"

// Pattern is a compiled temporal rate-multiplier curve. Scale(t)
// multiplies a cohort's base arrival rate; maxScale bounds it (the
// thinning envelope) and meanScale is the long-run average (the
// stationary rate predictors calibrate against). A nil *Pattern means
// the constant curve Scale ≡ 1.
type Pattern struct {
	kind string

	// piecewise
	periods []PeriodSpec
	cycle   bool
	total   float64 // sum of period durations

	// diurnal
	period    float64
	amplitude float64
	phase     float64

	// flash
	start, ramp, hold, decay, peak float64
}

func compilePattern(p *PatternSpec) *Pattern {
	if p == nil {
		return nil
	}
	c := &Pattern{kind: p.Kind}
	switch p.Kind {
	case PatternPiecewise:
		c.periods = append([]PeriodSpec(nil), p.Periods...)
		c.cycle = p.Cycle
		for _, per := range c.periods {
			c.total += per.Duration
		}
	case PatternDiurnal:
		c.period, c.amplitude, c.phase = p.Period, p.Amplitude, p.Phase
	case PatternFlash:
		c.start, c.ramp, c.hold, c.decay, c.peak = p.Start, p.Ramp, p.Hold, p.Decay, p.Peak
	}
	return c
}

// scale returns the rate multiplier at time t (seconds from run
// start). A nil pattern scales by 1 everywhere.
func (p *Pattern) scale(t float64) float64 {
	if p == nil {
		return 1
	}
	switch p.kind {
	case PatternPiecewise:
		if t < 0 {
			return 1
		}
		if p.cycle {
			t = math.Mod(t, p.total)
		} else if t >= p.total {
			// A finished non-cycling schedule reverts to the base rate, so
			// thinning always has a positive rate to recur on.
			return 1
		}
		for _, per := range p.periods {
			if t < per.Duration {
				return per.Scale
			}
			t -= per.Duration
		}
		return p.periods[len(p.periods)-1].Scale
	case PatternDiurnal:
		return 1 + p.amplitude*math.Sin(2*math.Pi*(t+p.phase)/p.period)
	case PatternFlash:
		t -= p.start
		switch {
		case t < 0:
			return 1
		case t < p.ramp:
			return 1 + (p.peak-1)*t/p.ramp
		case t < p.ramp+p.hold:
			return p.peak
		case t < p.ramp+p.hold+p.decay:
			return p.peak - (p.peak-1)*(t-p.ramp-p.hold)/p.decay
		default:
			return 1
		}
	}
	return 1
}

// maxScale returns the supremum of Scale over all t — the thinning
// bound for time-varying arrival generation.
func (p *Pattern) maxScale() float64 {
	if p == nil {
		return 1
	}
	switch p.kind {
	case PatternPiecewise:
		max := 0.0
		for _, per := range p.periods {
			if per.Scale > max {
				max = per.Scale
			}
		}
		if !p.cycle && max < 1 {
			// The post-schedule tail runs at scale 1.
			max = 1
		}
		return max
	case PatternDiurnal:
		return 1 + p.amplitude
	case PatternFlash:
		return p.peak
	}
	return 1
}

// meanScale returns the long-run average multiplier over the given
// horizon (seconds). Cyclic patterns average over whole cycles;
// transient ones (flash, finished piecewise schedules) dilute into
// their scale-1 tail as the horizon grows.
func (p *Pattern) meanScale(horizon float64) float64 {
	if p == nil || horizon <= 0 {
		return 1
	}
	switch p.kind {
	case PatternPiecewise:
		var cycleArea float64
		for _, per := range p.periods {
			cycleArea += per.Duration * per.Scale
		}
		if p.cycle {
			return cycleArea / p.total
		}
		if horizon <= p.total {
			// Partial schedule: integrate numerically-free piece by piece.
			var area, t float64
			for _, per := range p.periods {
				if t >= horizon {
					break
				}
				d := per.Duration
				if t+d > horizon {
					d = horizon - t
				}
				area += d * per.Scale
				t += per.Duration
			}
			return area / horizon
		}
		return (cycleArea + (horizon - p.total)) / horizon
	case PatternDiurnal:
		// Whole cycles average to exactly 1; a partial final cycle leaves
		// a sinusoidal remainder that shrinks as 1/horizon. Integrate the
		// remainder exactly.
		cycles := math.Floor(horizon / p.period)
		rem := horizon - cycles*p.period
		if rem == 0 {
			return 1
		}
		// ∫₀^rem sin(2π(t+phase)/T) dt = T/2π · [cos(2π·phase/T) − cos(2π(rem+phase)/T)]
		w := 2 * math.Pi / p.period
		area := cycles*p.period + rem + p.amplitude/w*(math.Cos(w*p.phase)-math.Cos(w*(rem+p.phase)))
		return area / horizon
	case PatternFlash:
		// Area above the base line, integrated exactly over [0, horizon].
		// The hold contributes (peak−1) per second over its clipped span;
		// the ramp and decay are clipped right triangles, so a horizon
		// ending mid-slope contributes the trapezoid under the slope up
		// to the cut, not half the full triangle.
		s1 := p.start + p.ramp                          // ramp end / hold start
		s2 := s1 + p.hold                               // hold end / decay start
		end := s2 + p.decay                             // decay end
		clip := func(a, b float64) (float64, float64) { // overlap of [a,b] with [0,horizon]
			lo, hi := math.Max(a, 0), math.Min(b, horizon)
			if hi <= lo {
				return 0, 0
			}
			return lo, hi
		}
		var extra float64
		if lo, hi := clip(p.start, s1); hi > lo && p.ramp > 0 {
			// Scale 1 + (peak−1)(t−start)/ramp: ∫(scale−1) over [lo,hi]
			// = (peak−1)/(2·ramp) · ((hi−start)² − (lo−start)²).
			extra += (p.peak - 1) / (2 * p.ramp) *
				((hi-p.start)*(hi-p.start) - (lo-p.start)*(lo-p.start))
		}
		if lo, hi := clip(s1, s2); hi > lo {
			extra += (p.peak - 1) * (hi - lo)
		}
		if lo, hi := clip(s2, end); hi > lo && p.decay > 0 {
			// Scale peak − (peak−1)(t−s2)/decay: ∫(scale−1) over [lo,hi]
			// = (peak−1)·[(hi−lo) − ((hi−s2)² − (lo−s2)²)/(2·decay)].
			extra += (p.peak - 1) *
				((hi - lo) - ((hi-s2)*(hi-s2)-(lo-s2)*(lo-s2))/(2*p.decay))
		}
		return (horizon + extra) / horizon
	}
	return 1
}
