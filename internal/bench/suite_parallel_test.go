package bench

import (
	"sync"
	"testing"

	"perfpred/internal/workload"
)

// shortSuite returns a fresh suite with a short measurement window and
// the given worker count, cheap enough for race-detector runs. Each
// suite owns its cell memo, so every call measures from scratch.
func shortSuite(workers int) *Suite {
	s := NewSuite(1009)
	s.Opt.WarmUp = 5
	s.Opt.Duration = 20
	s.Opt.Workers = workers
	return s
}

// TestSuiteConcurrentCalibration hammers one Suite from many
// goroutines — the way concurrent figure generators would — and then
// checks every memoised artefact equals a serially-calibrated suite's.
// The gradient, historical and Laplace calibrations all measure through
// the suite's cell memo, so the goroutines also race that memo. Run
// under -race (`make race`) this is the concurrency-safety proof for
// the singleflight Suite.
func TestSuiteConcurrentCalibration(t *testing.T) {
	concurrent := shortSuite(4)
	archs := []workload.ServerArch{workload.AppServF(), workload.AppServVF(), workload.AppServS()}
	var wg sync.WaitGroup
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			switch g % 4 {
			case 0:
				if _, err := concurrent.gradient(); err != nil {
					t.Errorf("gradient: %v", err)
				}
			case 1:
				if _, err := concurrent.maxThroughput(archs[g%len(archs)]); err != nil {
					t.Errorf("maxThroughput: %v", err)
				}
			case 2:
				if _, err := concurrent.HistModelFor(archs[g%len(archs)]); err != nil {
					t.Errorf("HistModelFor: %v", err)
				}
			case 3:
				if _, err := concurrent.LaplaceScale(); err != nil {
					t.Errorf("LaplaceScale: %v", err)
				}
			}
		}(g)
	}
	wg.Wait()

	serial := shortSuite(1)
	wantGrad, err := serial.gradient()
	if err != nil {
		t.Fatal(err)
	}
	gotGrad, err := concurrent.gradient()
	if err != nil {
		t.Fatal(err)
	}
	if gotGrad != wantGrad {
		t.Fatalf("concurrent gradient %v != serial %v", gotGrad, wantGrad)
	}
	for _, arch := range archs {
		want, err := serial.maxThroughput(arch)
		if err != nil {
			t.Fatal(err)
		}
		got, err := concurrent.maxThroughput(arch)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%s: concurrent Xmax %v != serial %v", arch.Name, got, want)
		}
		wantHM, err := serial.HistModelFor(arch)
		if err != nil {
			t.Fatal(err)
		}
		gotHM, err := concurrent.HistModelFor(arch)
		if err != nil {
			t.Fatal(err)
		}
		if *gotHM != *wantHM {
			t.Fatalf("%s: concurrent historical model %+v != serial %+v", arch.Name, gotHM, wantHM)
		}
	}
	wantB, err := serial.LaplaceScale()
	if err != nil {
		t.Fatal(err)
	}
	gotB, err := concurrent.LaplaceScale()
	if err != nil {
		t.Fatal(err)
	}
	if gotB != wantB {
		t.Fatalf("concurrent Laplace scale %v != serial %v", gotB, wantB)
	}
}

// TestSuiteParallelHybridMatchesSerial pins the hybrid model built on
// the worker pool against the serial build: identical calibrated
// parameters and solver-evaluation counts.
func TestSuiteParallelHybridMatchesSerial(t *testing.T) {
	serial, err := shortSuite(1).Hybrid()
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := shortSuite(8).Hybrid()
	if err != nil {
		t.Fatal(err)
	}
	if pooled.Evaluations != serial.Evaluations {
		t.Fatalf("pooled build ran %d solver evaluations, serial %d", pooled.Evaluations, serial.Evaluations)
	}
	if len(pooled.Servers) != len(serial.Servers) {
		t.Fatalf("pooled build has %d servers, serial %d", len(pooled.Servers), len(serial.Servers))
	}
	for name, want := range serial.Servers {
		got, ok := pooled.Servers[name]
		if !ok {
			t.Fatalf("pooled build missing server %s", name)
		}
		if *got != *want {
			t.Fatalf("%s: pooled model %+v != serial %+v", name, got, want)
		}
	}
}
