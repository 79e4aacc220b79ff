package trade

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"perfpred/internal/obs"
	"perfpred/internal/workload"
)

// figure2Counts is a figure-2-style client-count grid for AppServF:
// fractions of the ~1440-client saturation population from well below
// the knee to well past it.
func figure2Counts() []int {
	return []int{260, 460, 650, 1050, 1300, 1560, 1890, 2210}
}

// TestMeasureCurveParallelMatchesSerial is the determinism contract of
// the parallel evaluation layer: a figure-2-style sweep run through
// the worker pool must produce Results identical — field for field,
// including reservoir samples — to the serial loop with the same seed.
func TestMeasureCurveParallelMatchesSerial(t *testing.T) {
	counts := figure2Counts()
	opt := MeasureOptions{Seed: 17, WarmUp: 5, Duration: 20, Workers: 1}
	serial, err := MeasureCurve(workload.AppServF(), counts, 0, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 4, 16} {
		opt.Workers = workers
		pooled, err := MeasureCurve(workload.AppServF(), counts, 0, opt)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(pooled) != len(serial) {
			t.Fatalf("workers=%d: %d points, want %d", workers, len(pooled), len(serial))
		}
		for i := range serial {
			if pooled[i].Clients != serial[i].Clients {
				t.Fatalf("workers=%d point %d: clients %d, want %d", workers, i, pooled[i].Clients, serial[i].Clients)
			}
			if !reflect.DeepEqual(pooled[i].Res, serial[i].Res) {
				t.Fatalf("workers=%d point %d (n=%d): pooled result differs from serial\npooled: %v\nserial: %v",
					workers, i, serial[i].Clients, pooled[i].Res, serial[i].Res)
			}
		}
	}
}

// TestMeasureCurveMetricsUnderParallelSweep runs a metrics-enabled
// parallel sweep: every concurrent simulator flushes into the same
// shared registry, so this is the race-tier proof that the atomic
// publish path is concurrency-safe, and that the totals survive the
// fan-out (throughput × duration × points completions land in the
// completed counter).
func TestMeasureCurveMetricsUnderParallelSweep(t *testing.T) {
	reg := obs.NewRegistry()
	obs.Bind(reg)
	defer obs.Bind(nil)
	counts := []int{200, 500, 900, 1300}
	opt := MeasureOptions{Seed: 17, WarmUp: 5, Duration: 20, Workers: 8}
	points, err := MeasureCurve(workload.AppServF(), counts, 0, opt)
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(0)
	for _, p := range points {
		for _, c := range p.Res.PerClass {
			want += uint64(c.Completed)
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counters["trade_requests_completed"]; got != want {
		t.Fatalf("trade_requests_completed = %d, want the sweep's %d completions", got, want)
	}
	if snap.Counters["sim_events_fired"] == 0 {
		t.Fatal("parallel sweep fired no sim events into the registry")
	}
}

// TestMeasureCurveParallelMixedWorkload repeats the determinism check
// on the heterogeneous (buy-mix) sweep used by figure 4.
func TestMeasureCurveParallelMixedWorkload(t *testing.T) {
	counts := []int{200, 500, 900}
	opt := MeasureOptions{Seed: 3, WarmUp: 5, Duration: 15, Workers: 1}
	serial, err := MeasureCurve(workload.AppServS(), counts, 0.25, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Workers = 8
	pooled, err := MeasureCurve(workload.AppServS(), counts, 0.25, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pooled, serial) {
		t.Fatal("parallel mixed-workload curve differs from serial")
	}
}

// BenchmarkMeasureCurve is the wall-clock evidence for the parallel
// evaluation layer: a figure-scale sweep (8 client populations on
// AppServF) at 1 worker versus all cores. On a machine with >= 4 cores
// the all-core run must come in at least ~2x faster; on fewer cores the
// two runs coincide (the pool degenerates to the serial loop). Run with:
//
//	go test -run '^$' -bench BenchmarkMeasureCurve -benchtime 2x ./internal/trade
func BenchmarkMeasureCurve(b *testing.B) {
	counts := figure2Counts()
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opt := MeasureOptions{Seed: 17, WarmUp: 10, Duration: 60, Workers: workers}
			for i := 0; i < b.N; i++ {
				if _, err := MeasureCurve(workload.AppServF(), counts, 0, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
