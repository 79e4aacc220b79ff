package scenario

import (
	"fmt"
	"math"

	"perfpred/internal/sim"
	"perfpred/internal/stats"
)

// BurstReport is one cohort's generated-vs-declared traffic check:
// does the arrival stream a Gen produces actually carry the rate and
// the burstiness its spec declares?
type BurstReport struct {
	// Cohort is the cohort name; Kind its arrival process.
	Cohort string
	Kind   string
	// Arrivals generated over the check horizon.
	Arrivals int
	// MeanRate is the observed rate; WantRate the spec's expected mean
	// rate over the horizon (pattern-adjusted); RateErr their relative
	// error; RateTol the error the check allows — at least 5%, widened
	// to a four-sigma sampling bound for over-dispersed streams.
	MeanRate float64
	WantRate float64
	RateErr  float64
	RateTol  float64
	// CV2 is the observed squared coefficient of variation of the
	// interarrival gaps; IDC the index of dispersion of 10-second
	// counts. Poisson ⇒ both ≈ 1; MMPP ⇒ both > 1.
	CV2 float64
	IDC float64
	// OK reports whether the stream matches its declaration; Reason
	// explains the first failure.
	OK     bool
	Reason string
}

// SelfCheck generates each open cohort's arrival stream over the
// given horizon (seconds) and verifies it against the spec: observed
// mean rate within 5% of the declared (pattern-adjusted) mean, plain
// Poisson cohorts index-of-dispersion-consistent with Poisson, and
// MMPP cohorts strictly over-dispersed. It is a diagnostic — it
// allocates freely and runs outside any simulation.
func SelfCheck(c *Compiled, seed int64, horizon float64) []BurstReport {
	var out []BurstReport
	for i, co := range c.Cohorts {
		if !co.open() {
			continue
		}
		arr := sim.NewStream(sim.SplitSeed(seed, uint64(3*i)))
		state := sim.NewStream(sim.SplitSeed(seed, uint64(3*i+1)))
		g := NewGen(co, arr, state)
		var times []float64
		for {
			t, _, ok := g.Next()
			if !ok || t > horizon {
				break
			}
			times = append(times, t)
		}
		out = append(out, checkCohort(co, times, horizon))
	}
	return out
}

func checkCohort(co *Cohort, times []float64, horizon float64) BurstReport {
	r := BurstReport{Cohort: co.Class.Name, Kind: co.Kind, Arrivals: len(times), OK: true}
	r.WantRate = co.MeanRate * co.Pattern.meanScale(horizon)
	if co.Kind == ProcTrace && !co.Trace.Loop && co.Trace.span() < horizon {
		// A finite trace stops early; rate it over its own span.
		r.WantRate = co.MeanRate * co.Trace.span() / horizon
	}
	r.MeanRate = float64(len(times)) / horizon
	if r.WantRate > 0 {
		r.RateErr = math.Abs(r.MeanRate-r.WantRate) / r.WantRate
	}
	r.CV2 = stats.InterarrivalCV2(times)
	r.IDC = stats.IndexOfDispersion(times, 10)

	fail := func(format string, args ...any) {
		if r.OK {
			r.OK = false
			r.Reason = fmt.Sprintf(format, args...)
		}
	}
	if len(times) < 100 {
		fail("only %d arrivals over %.0fs — horizon too short for a check", len(times), horizon)
		return r
	}
	// A bursty stream's count over any finite horizon is noisy:
	// Var(N) ≈ IDC·E[N], so the rate estimate has relative sigma
	// sqrt(IDC/E[N]). A rigid percentage would flag correct MMPP
	// generators on any affordable horizon; allow four sigmas, with
	// 5% as the floor for well-behaved streams.
	r.RateTol = 0.05
	if expected := r.WantRate * horizon; expected > 0 && r.IDC > 1 {
		if sigma := math.Sqrt(r.IDC / expected); 4*sigma > r.RateTol {
			r.RateTol = 4 * sigma
		}
	}
	if r.RateErr > r.RateTol {
		fail("mean rate %.3f/s is %.1f%% off the declared %.3f/s (tolerance %.1f%%)",
			r.MeanRate, 100*r.RateErr, r.WantRate, 100*r.RateTol)
	}
	switch {
	case co.Kind == ProcPoisson && co.Pattern == nil:
		if r.CV2 < 0.85 || r.CV2 > 1.15 {
			fail("Poisson cohort has interarrival CV² %.3f, want ≈ 1", r.CV2)
		}
		if r.IDC < 0.7 || r.IDC > 1.4 {
			fail("Poisson cohort has count IDC %.3f, want ≈ 1", r.IDC)
		}
	case co.Kind == ProcMMPP:
		if r.CV2 < 1.1 {
			fail("MMPP cohort has interarrival CV² %.3f — not over-dispersed", r.CV2)
		}
		if r.IDC < 1.2 {
			fail("MMPP cohort has count IDC %.3f — modulation not visible in counts", r.IDC)
		}
	}
	return r
}
