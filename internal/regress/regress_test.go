package regress

import (
	"math"
	"runtime"
	"testing"

	"perfpred/internal/trade"
	"perfpred/internal/workload"
)

// testArch is a slow synthetic architecture so tests measure small
// populations.
func testArch() workload.ServerArch {
	return workload.ServerArch{Name: "TestServ", Speed: 0.05, MPL: 50, MaxThroughputTypical: 0.05 * workload.MaxThroughputF}
}

// syntheticSamples builds samples whose response time is exactly
// linear in the offered app-server work: rt = base + slope·(n·dApp).
func syntheticSamples(arch workload.ServerArch, base, slope float64, pops []int) []Sample {
	demands := workload.CaseStudyDemands()
	appD := demands[workload.Browse].AppServerTime / arch.Speed
	out := make([]Sample, 0, len(pops))
	for _, n := range pops {
		out = append(out, Sample{
			Arch:    arch.Name,
			Clients: n,
			MeanRT:  base + slope*float64(n)*appD,
		})
	}
	return out
}

// A ridge solve with a vanishing penalty on exactly linear data must
// recover the generating line. The fit's own penalty and log target
// are fixed, so the solver is called directly with its own λ.
func TestRidgeRecoversSyntheticLinear(t *testing.T) {
	const base, slope = 0.080, 2.5
	var X [][]float64
	var y []float64
	for _, x := range []float64{-1.4, -1.1, -0.7, -0.2, 0.1, 0.5, 0.8, 1.2, 1.5, 1.9} {
		X = append(X, []float64{1, x, x * x, x * x * x})
		y = append(y, base+slope*x)
	}
	beta, err := ridgeSolve(X, y, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	for j, want := range []float64{base, slope, 0, 0} {
		if math.Abs(beta[j]-want) > 1e-6 {
			t.Errorf("weight %d = %v, want %v", j, beta[j], want)
		}
	}
}

// MaxClients must invert Predict: the goal holds at the reported
// capacity and breaks just past it.
func TestMaxClientsInvertsPredict(t *testing.T) {
	arch := testArch()
	pops := []int{5, 12, 20, 31, 44, 58, 71, 85, 92, 100}
	samples := syntheticSamples(arch, 0.080, 2.5, pops)
	m, err := fit(samples, []workload.ServerArch{arch}, workload.CaseStudyDemands(), workload.ThinkTimeMean,
		FitConfig{Degree: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, goal := range []float64{2.0, 5.0, 20.0} {
		capN, err := m.MaxClients(arch.Name, goal)
		if err != nil {
			t.Fatal(err)
		}
		if capN < 1 {
			t.Fatalf("goal %v: capacity %v", goal, capN)
		}
		if rt, _ := m.Predict(arch.Name, capN); rt > goal {
			t.Errorf("goal %v: rt %v at reported capacity %v", goal, rt, capN)
		}
		if rt, _ := m.Predict(arch.Name, capN+1); rt <= goal && capN < 2*100 {
			t.Errorf("goal %v: capacity %v not maximal (rt %v at +1)", goal, capN, rt)
		}
	}
}

// The k-NN fallback must return the exact target on an exact feature
// match and stay within the sample range between neighbours.
func TestKNNFallback(t *testing.T) {
	arch := testArch()
	samples := []Sample{
		{Arch: arch.Name, Clients: 10, MeanRT: 0.1},
		{Arch: arch.Name, Clients: 20, MeanRT: 0.2},
		{Arch: arch.Name, Clients: 30, MeanRT: 0.3},
		{Arch: arch.Name, Clients: 40, MeanRT: 0.4},
		{Arch: arch.Name, Clients: 50, MeanRT: 0.5},
		{Arch: arch.Name, Clients: 60, MeanRT: 0.6},
		{Arch: arch.Name, Clients: 70, MeanRT: 0.7},
		{Arch: arch.Name, Clients: 80, MeanRT: 0.8},
	}
	m, err := fit(samples, []workload.ServerArch{arch}, workload.CaseStudyDemands(), workload.ThinkTimeMean, FitConfig{Degree: 2})
	if err != nil {
		t.Fatal(err)
	}
	af := m.archs[arch.Name]
	raw := encode(af.traits, 30, 0, m.cfg.Degree, nil)
	for j := range raw {
		raw[j] = (raw[j] - af.mean[j]) / af.scale[j]
	}
	if got := knnPredict(af, raw); got != 0.3 {
		t.Errorf("exact-match k-NN = %v, want 0.3", got)
	}
	// Past the trained range the model extrapolates via the k-NN edge
	// value scaled by population — monotone increasing.
	prev := 0.0
	for _, n := range []float64{90, 120, 150} {
		rt, err := m.Predict(arch.Name, n)
		if err != nil {
			t.Fatal(err)
		}
		if rt <= prev {
			t.Errorf("extrapolation not monotone: rt(%v) = %v after %v", n, rt, prev)
		}
		prev = rt
	}
}

// Simulator-backed training must be bit-identical at any worker count:
// the fitted weights are compared exactly, not within tolerance.
func TestTrainDeterministicAcrossWorkers(t *testing.T) {
	cfg := TrainConfig{
		Archs:         []workload.ServerArch{testArch()},
		SamplesPerMix: 8,
		Seed:          41,
		Opt:           trade.MeasureOptions{WarmUp: 2, Duration: 6, Workers: 1},
		Fit:           FitConfig{Degree: 2},
	}
	serial, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Opt.Workers = runtime.NumCPU()
	par, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ws, wp := serial.Weights("TestServ"), par.Weights("TestServ")
	if len(ws) == 0 || len(ws) != len(wp) {
		t.Fatalf("weight vectors %d vs %d", len(ws), len(wp))
	}
	for i := range ws {
		if ws[i] != wp[i] {
			t.Errorf("weight %d differs across worker counts: %v vs %v", i, ws[i], wp[i])
		}
	}
	if serial.Stats.Samples != par.Stats.Samples || serial.Stats.SimSeconds != par.Stats.SimSeconds {
		t.Errorf("training stats differ: %+v vs %+v", serial.Stats, par.Stats)
	}
	// And a fresh run with the same seed reproduces the same model.
	again, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wa := again.Weights("TestServ")
	for i := range ws {
		if ws[i] != wa[i] {
			t.Errorf("weight %d not reproducible across runs: %v vs %v", i, ws[i], wa[i])
		}
	}
}

// Fit must reject malformed inputs loudly.
// Train is Measure then FitMeasured and nothing else: a refit over
// samples measured separately — at either worker count — must reproduce
// Train's model coefficient for coefficient, and its Stats must report
// what the original measurement cost, not what the refit did.
func TestTrainEqualsFitOverMeasuredSamples(t *testing.T) {
	cfg := TrainConfig{
		Archs:         []workload.ServerArch{testArch()},
		BuyFracs:      []float64{0.1},
		SamplesPerMix: 8,
		Seed:          41,
		Opt:           trade.MeasureOptions{WarmUp: 2, Duration: 6, Workers: 1},
		Fit:           FitConfig{Degree: 2},
	}
	trained, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := trained.Weights("TestServ")
	wantRT, _ := trained.Predict("TestServ", 120)
	for _, workers := range []int{1, 4} {
		cfg.Opt.Workers = workers
		samples, err := Measure(cfg)
		if err != nil {
			t.Fatal(err)
		}
		kept := append([]Sample(nil), samples...)
		for refit := 0; refit < 2; refit++ { // the samples outlive a fit unchanged
			m, err := FitMeasured(cfg, samples)
			if err != nil {
				t.Fatal(err)
			}
			got := m.Weights("TestServ")
			if len(got) == 0 || len(got) != len(want) {
				t.Fatalf("workers %d: weight vectors %d vs %d", workers, len(got), len(want))
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Errorf("workers %d refit %d: weight %d = %v, Train fitted %v", workers, refit, i, got[i], want[i])
				}
			}
			if rt, _ := m.Predict("TestServ", 120); rt != wantRT || m.QueryBuyFrac != trained.QueryBuyFrac {
				t.Errorf("workers %d: refit predicts %v at mix %v, Train %v at %v", workers, rt, m.QueryBuyFrac, wantRT, trained.QueryBuyFrac)
			}
			if m.Stats.Samples != 8 || m.Stats.SimSeconds != 8*(2+6) ||
				m.Stats.Samples != trained.Stats.Samples || m.Stats.SimSeconds != trained.Stats.SimSeconds {
				t.Errorf("workers %d: refit stats %+v, Train's %+v", workers, m.Stats, trained.Stats)
			}
			if m.Stats.WallSeconds <= 0 {
				t.Errorf("workers %d: refit recorded no wall time", workers)
			}
		}
		for i := range kept {
			if samples[i] != kept[i] {
				t.Fatalf("workers %d: FitMeasured changed sample %d: %+v → %+v", workers, i, kept[i], samples[i])
			}
		}
	}
}

func TestFitValidation(t *testing.T) {
	arch := testArch()
	if _, err := fit(nil, []workload.ServerArch{arch}, workload.CaseStudyDemands(), workload.ThinkTimeMean, FitConfig{}); err == nil {
		t.Error("empty sample set accepted")
	}
	few := syntheticSamples(arch, 0.1, 1, []int{5, 10, 15})
	if _, err := fit(few, []workload.ServerArch{arch}, workload.CaseStudyDemands(), workload.ThinkTimeMean, FitConfig{Degree: 3}); err == nil {
		t.Error("underdetermined fit accepted")
	}
	bad := []Sample{{Arch: arch.Name, Clients: 0, MeanRT: 0.1}}
	if _, err := fit(bad, []workload.ServerArch{arch}, workload.CaseStudyDemands(), workload.ThinkTimeMean, FitConfig{}); err == nil {
		t.Error("non-positive population accepted")
	}
	unknown := syntheticSamples(workload.ServerArch{Name: "Ghost", Speed: 1, MPL: 1, MaxThroughputTypical: 1}, 0.1, 1,
		[]int{5, 10, 15, 20, 25, 30, 35, 40})
	if _, err := fit(unknown, []workload.ServerArch{arch}, workload.CaseStudyDemands(), workload.ThinkTimeMean, FitConfig{}); err == nil {
		t.Error("unknown architecture accepted")
	}
	if err := (FitConfig{Degree: 9}).validate(); err == nil {
		t.Error("degree 9 accepted")
	}
}

// The log-response-time target must recover data that is log-linear in
// the load feature, to within the fixed ridge penalty's shrinkage, and
// always predict positive times.
func TestLogTargetRecoversExponential(t *testing.T) {
	arch := testArch()
	demands := workload.CaseStudyDemands()
	appD := demands[workload.Browse].AppServerTime / arch.Speed
	const a, b = -5.0, 1.9
	pops := []int{5, 12, 20, 31, 44, 58, 71, 85, 92, 100}
	samples := make([]Sample, 0, len(pops))
	for _, n := range pops {
		samples = append(samples, Sample{
			Arch:    arch.Name,
			Clients: n,
			MeanRT:  math.Exp(a + b*float64(n)*appD),
		})
	}
	m, err := fit(samples, []workload.ServerArch{arch}, demands, workload.ThinkTimeMean,
		FitConfig{Degree: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []float64{5, 17, 26, 50, 63, 88, 100} {
		want := math.Exp(a + b*n*appD)
		got, err := m.Predict(arch.Name, n)
		if err != nil {
			t.Fatal(err)
		}
		if got <= 0 {
			t.Fatalf("n=%v: non-positive prediction %v", n, got)
		}
		if math.Abs(got-want)/want > 1e-4 {
			t.Errorf("n=%v: predicted %v, want %v", n, got, want)
		}
	}
}
