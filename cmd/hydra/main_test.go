package main

import (
	"math"
	"path/filepath"
	"testing"

	"perfpred/internal/hist"
	"perfpred/internal/workload"
)

// TestCalibrateAll exercises the full hydra calibration pipeline the
// CLI commands share: two established servers measured and fitted,
// relationship 2 extrapolating the new one.
func TestCalibrateAll(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator-backed CLI pipeline")
	}
	models, err := calibrateAll(3, hist.NewStore())
	if err != nil {
		t.Fatal(err)
	}
	for _, arch := range workload.CaseStudyServers() {
		m, ok := models[arch.Name]
		if !ok {
			t.Fatalf("no model for %s", arch.Name)
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("%s: %v", arch.Name, err)
		}
		// Max throughputs track the benchmarks.
		want := arch.MaxThroughputTypical
		if m.MaxThroughput < 0.9*want || m.MaxThroughput > 1.1*want {
			t.Fatalf("%s Xmax = %v, want ≈%v", arch.Name, m.MaxThroughput, want)
		}
		// Capacity queries answer in closed form.
		n, err := m.MaxClients(0.3)
		if err != nil {
			t.Fatal(err)
		}
		if n <= 0 {
			t.Fatalf("%s capacity = %v", arch.Name, n)
		}
	}
}

// TestStoreRoundTripThroughCLIPipeline: the first calibration writes
// the store; a second pipeline run rebuilds identical models from the
// stored history without re-measuring.
func TestStoreRoundTripThroughCLIPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator-backed CLI pipeline")
	}
	path := filepath.Join(t.TempDir(), "hydra.json")
	fresh, err := loadOrCalibrate(5, path)
	if err != nil {
		t.Fatal(err)
	}
	fromStore, err := loadOrCalibrate(999, path) // different seed: must not re-measure
	if err != nil {
		t.Fatal(err)
	}
	for name, a := range fresh {
		b, ok := fromStore[name]
		if !ok {
			t.Fatalf("store lost %s", name)
		}
		if a.CL != b.CL || a.LambdaL != b.LambdaL || a.MaxThroughput != b.MaxThroughput {
			t.Fatalf("%s differs after store round trip: %+v vs %+v", name, a, b)
		}
	}
}

// Flag values are numbers from outside: `hydra predict -clients -1`
// used to print a negative throughput.
func TestCheckQuery(t *testing.T) {
	if err := checkQuery(500, 0.3); err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][2]float64{{-1, 0.3}, {0, 0.3}, {math.NaN(), 0.3}, {math.Inf(1), 0.3},
		{500, 0}, {500, -0.3}, {500, math.NaN()}, {500, math.Inf(1)}} {
		if err := checkQuery(bad[0], bad[1]); err == nil {
			t.Errorf("clients %v, goal %v accepted", bad[0], bad[1])
		}
	}
}
