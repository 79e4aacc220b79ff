package scenario

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"perfpred/internal/sim"
)

const exampleSpecs = "../../examples/scenarios"

// tinyDwellSpec validated, compiled, and hung the first Gen.Next: the
// MMPP chain is advanced one state at a time and never caught up.
const tinyDwellSpec = `{"name":"x","cohorts":[{"name":"c","mix":{"browse":1},"arrival":{"process":"mmpp",
	"states":[{"rate":5,"mean_dwell":1e-300},{"rate":1,"mean_dwell":1e-300}]}}]}`

// FuzzParse drives a spec document through Parse → Compile → a few
// arrivals from every open cohort. Whatever the bytes, no stage may
// panic or hang, a spec that compiles must survive its own JSON round
// trip, and arrival times must be finite and non-decreasing.
func FuzzParse(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join(exampleSpecs, "*.json"))
	if err != nil || len(paths) != 3 {
		f.Fatalf("example specs: %v, %v; want the three under %s", paths, err, exampleSpecs)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(tinyDwellSpec))

	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := parse(data)
		if err != nil {
			return
		}
		for _, c := range spec.Cohorts {
			if tr := c.Arrival.Trace; tr != "" && tr != "checkout_burst.csv" {
				t.Skip("the harness opens no file an input names")
			}
		}
		comp, err := spec.compile(exampleSpecs)
		if err != nil {
			return
		}
		out, err := spec.JSON()
		if err != nil {
			t.Fatalf("compiled spec does not re-emit: %v", err)
		}
		if _, err := parse(out); err != nil {
			t.Fatalf("re-emitted spec does not parse: %v\n%s", err, out)
		}
		for i, co := range comp.Cohorts {
			if !co.open() || !affordable(co) {
				continue
			}
			g := NewGen(co, sim.NewStream(sim.SplitSeed(1, uint64(2*i))), sim.NewStream(sim.SplitSeed(1, uint64(2*i+1))))
			last := 0.0
			for k := 0; k < 16; k++ {
				at, _, ok := g.Next()
				if !ok {
					break
				}
				if math.IsNaN(at) || math.IsInf(at, 0) || at < last {
					t.Fatalf("cohort %q arrival %d at %v after %v", co.Class.Name, k, at, last)
				}
				last = at
			}
		}
	})
}

// affordable reports whether the harness can pay for a cohort's
// arrivals. Thinning costs MaxRate/rate(t) candidates per arrival and
// walks every candidate of a silent stretch, so a legitimate spec (a
// flash peak of 1e9, a quiet hour) can make one Next arbitrarily
// expensive by design; the harness pulls only where the rate never
// falls below a hundredth of the envelope.
func affordable(co *Cohort) bool {
	if co.Kind == ProcTrace {
		return true
	}
	low := co.BaseRate
	if co.Kind == ProcMMPP {
		low = math.Inf(1)
		for _, st := range co.States {
			low = math.Min(low, st.Rate)
		}
	}
	if p := co.Pattern; p != nil {
		switch p.kind {
		case PatternPiecewise:
			minScale := 1.0 // the tail of a finished schedule
			for _, per := range p.periods {
				minScale = math.Min(minScale, per.Scale)
			}
			low *= minScale
		case PatternDiurnal:
			low *= 1 - p.amplitude
		}
	}
	return low*100 >= co.MaxRate
}
