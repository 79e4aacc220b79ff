package trade

import (
	"math"
	"testing"

	"perfpred/internal/workload"
)

func adaptiveConfig(seed int64) Config {
	return Config{
		Server:   workload.AppServF(),
		DB:       workload.CaseStudyDB(),
		Demands:  workload.CaseStudyDemands(),
		Load:     workload.TypicalWorkload(600),
		Seed:     seed,
		WarmUp:   10,
		Duration: 60,
	}
}

func TestRunAdaptiveValidation(t *testing.T) {
	if _, err := RunAdaptive(adaptiveConfig(1), RunControl{}); err == nil {
		t.Fatal("zero target should fail")
	}
	if _, err := RunAdaptive(adaptiveConfig(1), RunControl{TargetRelErr: 0.1, MaxDuration: 5, BatchLength: 10, MinBatches: 10}); err == nil {
		t.Fatal("cap smaller than the minimum batch budget should fail")
	}
	bad := adaptiveConfig(1)
	bad.Duration = 0
	if _, err := RunAdaptive(bad, RunControl{TargetRelErr: 0.1}); err == nil {
		t.Fatal("invalid config should fail")
	}
}

func TestRunAdaptiveConverges(t *testing.T) {
	const target = 0.05
	res, err := RunAdaptive(adaptiveConfig(3), RunControl{TargetRelErr: target})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("lightly loaded run did not converge: rel err %v after %d batches", res.AchievedRelErr, res.Batches)
	}
	if res.AchievedRelErr > target {
		t.Fatalf("achieved rel err %v exceeds target %v despite convergence", res.AchievedRelErr, target)
	}
	if res.Batches < 10 {
		t.Fatalf("stopped after %d batches, floor is 10", res.Batches)
	}
	// The minimum adaptive window equals the fixed horizon (10 batches
	// of Duration/10); the result reports what was actually measured.
	if res.Duration < 60 {
		t.Fatalf("measured window %v below the configured minimum 60", res.Duration)
	}
	if res.Throughput <= 0 || res.MeanRT <= 0 {
		t.Fatal("empty measurements")
	}
}

func TestRunAdaptiveHonorsCap(t *testing.T) {
	// An absurdly tight target cannot converge inside the cap; the run
	// must stop at MaxDuration and say so.
	res, err := RunAdaptive(adaptiveConfig(5), RunControl{TargetRelErr: 1e-9, MaxDuration: 120})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatal("target 1e-9 should not converge in 120s")
	}
	if res.Duration != 120 {
		t.Fatalf("measured window %v, want the 120s cap", res.Duration)
	}
}

// TestRunAdaptiveMatchesLongFixedRun is the precision property: across
// seeds, the adaptive estimate lands within a few targets' width of a
// fixed-horizon run long enough to treat as ground truth.
func TestRunAdaptiveMatchesLongFixedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed simulation sweep")
	}
	const target = 0.05
	for _, seed := range []int64{2, 7, 19} {
		cfg := adaptiveConfig(seed)
		adaptive, err := RunAdaptive(cfg, RunControl{TargetRelErr: target})
		if err != nil {
			t.Fatal(err)
		}
		long := cfg
		long.Seed = seed + 1000 // independent run of the same system
		long.Duration = 1200
		truth, err := Run(long)
		if err != nil {
			t.Fatal(err)
		}
		rel := math.Abs(adaptive.MeanRT-truth.MeanRT) / truth.MeanRT
		if rel > 4*target {
			t.Errorf("seed %d: adaptive mean %v vs long-run %v (rel %v > %v)", seed, adaptive.MeanRT, truth.MeanRT, rel, 4*target)
		}
	}
}

// TestRunAdaptiveDeterministic pins reproducibility: identical configs
// and controls measure identical windows and means.
func TestRunAdaptiveDeterministic(t *testing.T) {
	ctl := RunControl{TargetRelErr: 0.08}
	a, err := RunAdaptive(adaptiveConfig(13), ctl)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunAdaptive(adaptiveConfig(13), ctl)
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanRT != b.MeanRT || a.Duration != b.Duration || a.Batches != b.Batches {
		t.Fatalf("identical adaptive runs diverged: %+v vs %+v", a, b)
	}
}

// TestMeasureCurveAdaptiveParallel drives concurrent adaptive
// measurements through MeasureCurve — the configuration the race
// detector must clear — and checks worker-count independence.
func TestMeasureCurveAdaptiveParallel(t *testing.T) {
	opt := MeasureOptions{
		Seed:         17,
		WarmUp:       5,
		Duration:     30,
		TargetRelErr: 0.1,
	}
	counts := []int{100, 300, 500, 700}
	serialOpt := opt
	serialOpt.Workers = 1
	serial, err := MeasureCurve(workload.AppServF(), counts, 0, serialOpt)
	if err != nil {
		t.Fatal(err)
	}
	parallelRun, err := MeasureCurve(workload.AppServF(), counts, 0, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		s, p := serial[i].Res, parallelRun[i].Res
		if s.MeanRT != p.MeanRT || s.Duration != p.Duration || s.Batches != p.Batches {
			t.Fatalf("point %d: serial %+v vs parallel %+v", i, s, p)
		}
		if !s.Converged {
			t.Errorf("point %d did not converge", i)
		}
	}
}

// TestMeasureAdaptiveOption checks the MeasureOptions plumbing: a
// positive TargetRelErr must produce an adaptive result.
func TestMeasureAdaptiveOption(t *testing.T) {
	res, err := Measure(workload.AppServF(), workload.TypicalWorkload(300), MeasureOptions{
		Seed: 3, WarmUp: 5, Duration: 30, TargetRelErr: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Batches == 0 {
		t.Fatal("adaptive option ignored: no batch diagnostics")
	}
	fixed, err := Measure(workload.AppServF(), workload.TypicalWorkload(300), MeasureOptions{
		Seed: 3, WarmUp: 5, Duration: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	if fixed.Batches != 0 || fixed.Converged {
		t.Fatal("fixed-horizon run should carry no adaptive diagnostics")
	}
}
