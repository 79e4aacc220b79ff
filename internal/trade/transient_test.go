package trade

import (
	"testing"

	"perfpred/internal/workload"
)

// The cold-start transient curve — the stabilisation study's input
// (§8.2) — is Windows over a closed population.
func transientConfig(clients int) Config {
	return Config{
		Server:   workload.AppServF(),
		DB:       workload.CaseStudyDB(),
		Demands:  workload.CaseStudyDemands(),
		Load:     workload.TypicalWorkload(clients),
		Seed:     29,
		Duration: 120,
	}
}

func TestTransientCurveValidation(t *testing.T) {
	if _, err := Windows(transientConfig(100), 0); err == nil {
		t.Fatal("zero window should fail")
	}
	bad := transientConfig(100)
	bad.Duration = 0
	if _, err := Windows(bad, 10); err == nil {
		t.Fatal("invalid config should fail")
	}
}

func TestTransientCurveShape(t *testing.T) {
	curve, err := Windows(transientConfig(1800), 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != 12 {
		t.Fatalf("windows = %d, want 12", len(curve))
	}
	// Window edges are evenly spaced.
	for i, p := range curve {
		if want := float64(i+1) * 10; p.End != want || p.Start != want-10 {
			t.Fatalf("window %d spans %v–%v, want %v–%v", i, p.Start, p.End, want-10, want)
		}
	}
	// A saturated cold start ramps up: the first non-empty window's RT
	// sits below the last window's.
	var first, last WindowPoint
	for _, p := range curve {
		if p.Completed > 0 {
			if first.Completed == 0 {
				first = p
			}
			last = p
		}
	}
	if first.Completed == 0 {
		t.Fatal("no completions recorded")
	}
	if first.MeanRT >= last.MeanRT {
		t.Fatalf("cold-start ramp missing: first %v, last %v", first.MeanRT, last.MeanRT)
	}
	// Total completions are plausible: roughly max throughput × time.
	total := 0
	for _, p := range curve {
		total += p.Completed
	}
	if total < 10000 {
		t.Fatalf("completions = %d, implausibly low", total)
	}
}

func TestTransientCurveDeterministic(t *testing.T) {
	a, err := Windows(transientConfig(600), 20)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Windows(transientConfig(600), 20)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].MeanRT != b[i].MeanRT || a[i].Completed != b[i].Completed {
			t.Fatalf("window %d differs across identical runs", i)
		}
	}
}
