package scenario

import (
	"perfpred/internal/sim"
	"perfpred/internal/workload"
)

// Gen is a pull-based arrival generator for one open cohort. Next
// returns successive arrival times; the caller owns the pacing (the
// event engine schedules them). Gen holds all mutable state, so one
// read-only Cohort can drive any number of independent generators —
// one per shard-pool replica, each on its own sim.Split stream, which
// is what makes spec-driven runs bit-identical at any shard count.
//
// Next allocates nothing: time-varying rates use Lewis–Shedler
// thinning against the cohort's MaxRate envelope, MMPP modulation
// advances its state chain lazily from a second stream, and trace
// replay walks the loaded events in place.
type Gen struct {
	c *Cohort
	// arr draws candidate gaps and thinning accept/reject uniforms.
	arr *sim.Stream
	// state draws MMPP dwell times; separate from arr so the arrival
	// count cannot perturb the modulating chain.
	state *sim.Stream

	t float64 // last candidate arrival time

	// MMPP state chain, advanced lazily to cover t.
	stateIdx   int
	stateUntil float64

	// trace replay cursor.
	idx       int
	traceBase float64 // accumulated loop offset
}

// NewGen returns a generator for the open cohort c. arr paces the
// arrivals; state paces MMPP modulation (unused but required for the
// other kinds, so stream layouts stay uniform across cohorts). It
// panics on a closed cohort — closed populations are driven by their
// clients' think loops, not by a generator.
func NewGen(c *Cohort, arr, state *sim.Stream) *Gen {
	if !c.open() {
		panic("scenario: NewGen on closed cohort " + c.Class.Name)
	}
	g := &Gen{c: c, arr: arr, state: state}
	if c.Kind == ProcMMPP {
		g.stateUntil = state.Exp(c.States[0].MeanDwell)
	}
	return g
}

// Next returns the next arrival: its absolute time and its request
// type. A zero ("") type means the caller samples the cohort's mix;
// trace replay returns the recorded type. ok is false when the
// process is exhausted (a non-looping trace ran out), after which
// Next keeps returning false.
func (g *Gen) Next() (t float64, rt workload.RequestType, ok bool) {
	switch g.c.Kind {
	case ProcTrace:
		return g.nextTrace()
	case ProcPoisson, ProcMMPP:
		return g.nextThinned(), "", true
	}
	return 0, "", false
}

// nextThinned samples the next arrival of a (possibly modulated)
// rate process by thinning: candidate gaps come from a homogeneous
// Poisson process at the MaxRate envelope, and each candidate is
// accepted with probability rate(t)/MaxRate. Validation guarantees
// the loop terminates: every process recurs to a positive rate (a
// finished piecewise schedule reverts to scale 1, diurnal amplitude
// is capped at 1, and an MMPP chain revisits its positive-rate
// state), so acceptances cannot die out.
func (g *Gen) nextThinned() float64 {
	env := g.c.MaxRate
	mean := 1 / env
	for {
		g.t += g.arr.Exp(mean)
		rate := g.instRate(g.t)
		// Draw the accept uniform unconditionally — even when the
		// candidate is sure to be accepted or rejected — so the arrival
		// stream's draw count per candidate is fixed and replays exactly.
		if g.arr.Float64()*env < rate {
			return g.t
		}
	}
}

// instRate is the instantaneous rate at time t, advancing the MMPP
// state chain as far as needed.
func (g *Gen) instRate(t float64) float64 {
	base := g.c.BaseRate
	if g.c.Kind == ProcMMPP {
		for t >= g.stateUntil {
			g.stateIdx++
			if g.stateIdx == len(g.c.States) {
				g.stateIdx = 0
			}
			g.stateUntil += g.state.Exp(g.c.States[g.stateIdx].MeanDwell)
		}
		base = g.c.States[g.stateIdx].Rate
	}
	return base * g.c.Pattern.scale(t)
}

func (g *Gen) nextTrace() (float64, workload.RequestType, bool) {
	tr := g.c.Trace
	if g.idx == len(tr.Events) {
		if !tr.Loop {
			return 0, "", false
		}
		g.traceBase += tr.Cycle
		g.idx = 0
	}
	ev := tr.Events[g.idx]
	g.idx++
	return g.traceBase + ev.T, ev.Type, true
}
