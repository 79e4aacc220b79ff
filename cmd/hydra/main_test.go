package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"perfpred/internal/hist"
	"perfpred/internal/obs"
	"perfpred/internal/trade"
	"perfpred/internal/workload"
)

// TestCalibrateAll exercises the full hydra calibration pipeline the
// CLI commands share: two established servers measured and fitted,
// relationship 2 extrapolating the new one.
func TestCalibrateAll(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator-backed CLI pipeline")
	}
	models, err := loadOrCalibrate(3, "")
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

// A store with a gap pays for the gap alone: take one benchmark out of
// a complete store and the next run measures that benchmark, records
// it, and leaves every recorded data point as it was. (The run used to
// re-measure everything on top of the loaded history, so each
// established server's four points became eight.)
func TestIncompleteStoreMeasuresOnlyTheGap(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator-backed CLI pipeline")
	}
	reg := obs.NewRegistry()
	obs.Bind(reg)
	defer obs.Bind(nil)
	runs := reg.Counter("trade_runs")

	path := filepath.Join(t.TempDir(), "hydra.json")
	want, err := loadOrCalibrate(5, path)
	if err != nil {
		t.Fatal(err)
	}
	complete, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	full := runs.Value()

	// Drop the new server's benchmark from the saved document.
	var doc map[string]any
	if err := json.Unmarshal(complete, &doc); err != nil {
		t.Fatal(err)
	}
	delete(doc["servers"].(map[string]any), "AppServS")
	gapped, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, gapped, 0o644); err != nil {
		t.Fatal(err)
	}

	got, err := loadOrCalibrate(5, path)
	if err != nil {
		t.Fatal(err)
	}
	refill := runs.Value() - full
	if _, err := trade.MaxThroughput(workload.AppServS(), 0, trade.MeasureOptions{Seed: 5, WarmUp: 30, Duration: 120}); err != nil {
		t.Fatal(err)
	}
	one := runs.Value() - full - refill
	if refill != one || refill >= full {
		t.Fatalf("filling one benchmark took %d simulator runs, want the %d of one benchmark (a first run takes %d)", refill, one, full)
	}
	store := hist.NewStore()
	if err := store.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	for _, arch := range workload.CaseStudyServers() {
		wantPoints := 0
		if arch.Established {
			wantPoints = 4
		}
		if n := len(store.Points(arch.Name, hist.TypicalWorkloadKey)); n != wantPoints {
			t.Errorf("%s has %d stored data points after the refill, want %d", arch.Name, n, wantPoints)
		}
		if *got[arch.Name] != *want[arch.Name] {
			t.Errorf("%s model differs after the refill: %+v vs %+v", arch.Name, got[arch.Name], want[arch.Name])
		}
	}
	// The same seed measures the same benchmark, so the store is whole
	// again, and a further run has nothing to measure or to write.
	if after, _ := os.ReadFile(path); !bytes.Equal(after, complete) {
		t.Error("refilled store differs from the complete one")
	}
	before := runs.Value()
	if _, err := loadOrCalibrate(999, path); err != nil {
		t.Fatal(err)
	}
	if runs.Value() != before {
		t.Errorf("a complete store still cost %d simulator runs", runs.Value()-before)
	}
}
