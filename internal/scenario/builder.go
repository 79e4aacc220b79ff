package scenario

// Builder assembles a Spec programmatically — the Go-native
// alternative to a JSON spec file, used by tests and by commands that
// synthesise scenarios from flags. Cohort-scoped modifiers (Goal,
// Pattern, Think) apply to the most recently added cohort. Errors
// surface at Compile via the spec's own validation, so a builder
// chain never needs intermediate error checks.
type Builder struct {
	spec Spec
}

// New starts a builder for a named scenario.
func New(name string) *Builder {
	return &Builder{spec: Spec{Name: name}}
}

// AddClosed appends a closed cohort of clients think-looping with the
// given distribution and request mix.
func (b *Builder) AddClosed(name string, clients int, think DistSpec, mix map[string]float64) *Builder {
	b.spec.Cohorts = append(b.spec.Cohorts, CohortSpec{
		Name: name, Mix: mix, Think: &think,
		Arrival: ArrivalSpec{Process: ProcClosed, Clients: clients},
	})
	return b
}

// AddPoisson appends an open Poisson cohort at the given base rate.
func (b *Builder) AddPoisson(name string, rate float64, mix map[string]float64) *Builder {
	b.spec.Cohorts = append(b.spec.Cohorts, CohortSpec{
		Name: name, Mix: mix,
		Arrival: ArrivalSpec{Process: ProcPoisson, Rate: rate},
	})
	return b
}

// AddMMPP appends a bursty cohort whose rate is modulated by the
// given states, visited cyclically.
func (b *Builder) AddMMPP(name string, states []MMPPStateSpec, mix map[string]float64) *Builder {
	b.spec.Cohorts = append(b.spec.Cohorts, CohortSpec{
		Name: name, Mix: mix,
		Arrival: ArrivalSpec{Process: ProcMMPP, States: states},
	})
	return b
}

// AddTrace appends a trace-replay cohort. The path resolves relative
// to the directory passed to Compile.
func (b *Builder) AddTrace(name, path string, loop bool) *Builder {
	b.spec.Cohorts = append(b.spec.Cohorts, CohortSpec{
		Name:    name,
		Arrival: ArrivalSpec{Process: ProcTrace, Trace: path, Loop: loop},
	})
	return b
}

// Goal sets the last cohort's mean response-time SLA goal, seconds.
func (b *Builder) Goal(rt float64) *Builder {
	if n := len(b.spec.Cohorts); n > 0 {
		b.spec.Cohorts[n-1].GoalRT = rt
	}
	return b
}

// GoalPercentile sets the last cohort's percentile SLA: fraction pct
// of requests must finish within rt seconds.
func (b *Builder) GoalPercentile(rt, pct float64) *Builder {
	if n := len(b.spec.Cohorts); n > 0 {
		b.spec.Cohorts[n-1].GoalRT = rt
		b.spec.Cohorts[n-1].GoalPercentile = pct
	}
	return b
}

// Pattern attaches a temporal pattern to the last cohort.
func (b *Builder) Pattern(p PatternSpec) *Builder {
	if n := len(b.spec.Cohorts); n > 0 {
		b.spec.Cohorts[n-1].Arrival.Pattern = &p
	}
	return b
}

// Spec returns the assembled (not yet validated) spec.
func (b *Builder) Spec() *Spec { return &b.spec }

// Compile validates and compiles the assembled spec; baseDir anchors
// relative trace paths.
func (b *Builder) Compile(baseDir string) (*Compiled, error) {
	return b.spec.compile(baseDir)
}

// Exponential returns an exponential DistSpec with the given mean.
func Exponential(mean float64) DistSpec {
	return DistSpec{Dist: DistExponential, Mean: mean}
}

// Lognormal returns a lognormal DistSpec with the given mean and
// coefficient of variation.
func Lognormal(mean, cv float64) DistSpec {
	return DistSpec{Dist: DistLognormal, Mean: mean, CV: cv}
}

// Deterministic returns a constant DistSpec.
func Deterministic(mean float64) DistSpec {
	return DistSpec{Dist: DistDeterministic, Mean: mean}
}

// Diurnal returns a sinusoidal pattern: scale(t) = 1 +
// amplitude·sin(2π(t+phase)/period).
func Diurnal(period, amplitude, phase float64) PatternSpec {
	return PatternSpec{Kind: PatternDiurnal, Period: period, Amplitude: amplitude, Phase: phase}
}

// FlashSale returns a spike pattern: base rate until start, a linear
// ramp to peak over ramp seconds, a hold, and a linear decay back.
func FlashSale(start, ramp, hold, decay, peak float64) PatternSpec {
	return PatternSpec{Kind: PatternFlash, Start: start, Ramp: ramp, Hold: hold, Decay: decay, Peak: peak}
}
