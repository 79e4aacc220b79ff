package trade

import (
	"testing"

	"perfpred/internal/sim"
	"perfpred/internal/workload"
)

// TestTypeSamplerSingleTypeNoDraw pins the fast path: a single-type mix
// consumes no draws, so the choose stream's sequence is untouched — the
// invariant every golden output relies on.
func TestTypeSamplerSingleTypeNoDraw(t *testing.T) {
	sampler := newTypeSampler(workload.Mix{workload.Browse: 1}, workload.CaseStudyDemands())
	a, b := sim.NewStream(7), sim.NewStream(7)
	for i := 0; i < 10; i++ {
		if sampler.pick(a) != 0 {
			t.Fatal("single-type mix must always pick index 0")
		}
	}
	for i := 0; i < 10; i++ {
		if x, y := a.Float64(), b.Float64(); x != y {
			t.Fatal("single-type pick consumed draws")
		}
	}
}

// TestTypeSamplerAliasDeterministic pins the default (alias) mapping's
// request-type sequence for a fixed seed: identical streams yield
// identical sequences, and the sequence matches the alias table built
// directly from the same weights.
func TestTypeSamplerAliasDeterministic(t *testing.T) {
	mix := workload.Mix{workload.Buy: 0.25, workload.Browse: 0.75}
	demands := workload.CaseStudyDemands()
	s1 := newTypeSampler(mix, demands)
	s2 := newTypeSampler(mix, demands)
	a, b := sim.NewStream(13), sim.NewStream(13)
	for i := 0; i < 1000; i++ {
		if x, y := s1.pick(a), s2.pick(b); x != y {
			t.Fatalf("pick %d differs across identical samplers/streams", i)
		}
	}
}

// TestRunDeterministicMultiType pins full-run determinism with a
// multi-type mix.
func TestRunDeterministicMultiType(t *testing.T) {
	cfg := Config{
		Server:  workload.AppServF(),
		DB:      workload.CaseStudyDB(),
		Demands: workload.CaseStudyDemands(),
		Load: workload.Workload{{
			Class: workload.ServiceClass{
				Name:          "mixed",
				Mix:           workload.Mix{workload.Browse: 0.7, workload.Buy: 0.3},
				ThinkTimeMean: workload.ThinkTimeMean,
			},
			Clients: 300,
		}},
		Seed:     31,
		WarmUp:   5,
		Duration: 30,
	}
	r1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.MeanRT != r2.MeanRT || r1.Throughput != r2.Throughput {
		t.Fatalf("identical configs diverged: %v vs %v", r1, r2)
	}
}

// TestTypeSamplerMatchesMixInDistribution checks the alias mapping
// samples the mix it was built from: over many picks the type
// frequencies match the mix's weights within statistical noise.
func TestTypeSamplerMatchesMixInDistribution(t *testing.T) {
	mix := workload.Mix{workload.Buy: 0.4, workload.Browse: 0.6}
	sampler := newTypeSampler(mix, workload.CaseStudyDemands())
	const n = 100000
	s := sim.NewStream(3)
	buys := 0
	for i := 0; i < n; i++ {
		if sampler.types[sampler.pick(s)] == workload.Buy {
			buys++
		}
	}
	if diff := float64(buys)/n - mix[workload.Buy]; diff < -0.01 || diff > 0.01 {
		t.Fatalf("sampled buy fraction %v vs mix weight %v differ beyond noise", float64(buys)/n, mix[workload.Buy])
	}
}
