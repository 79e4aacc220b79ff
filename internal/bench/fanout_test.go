package bench

import (
	"bytes"
	"testing"

	"perfpred/internal/obs"
	"perfpred/internal/trade"
	"perfpred/internal/workload"
)

// fanoutSeed is used by no other test; every suite owns its cell
// memo, so every simulation below really runs.
const fanoutSeed = 2003

// renderAll runs all 27 experiments in paper order on one fresh
// short-window suite. It returns each table's text with its host
// timings blanked and, per experiment, the number of simulator runs it
// started, in total and outside a fan-out: the simulator's own run
// count, less the runs the suite's fan-outs started.
func renderAll(t *testing.T, workers int) (text map[string]string, serial, total map[string]int) {
	t.Helper()
	reg := obs.NewRegistry()
	trade.EnableMetrics(reg)
	defer trade.EnableMetrics(nil)
	runs := reg.Counter("trade_runs")

	s := NewSuite(fanoutSeed)
	s.Opt.WarmUp, s.Opt.Duration, s.Opt.Workers = 5, 20, workers
	text, serial, total = map[string]string{}, map[string]int{}, map[string]int{}
	for _, name := range Experiments() {
		runs0, fanned0 := runs.Value(), s.fannedRuns.Load()
		tab, err := s.Run(name)
		if err != nil {
			t.Fatalf("%s at %d workers: %v", name, workers, err)
		}
		total[name] = int(runs.Value() - runs0)
		serial[name] = total[name] - int(s.fannedRuns.Load()-fanned0)
		for _, row := range tab.Rows {
			for i := range row {
				if row[i].Host {
					row[i] = Cell{}
				}
			}
		}
		var buf bytes.Buffer
		tab.Fprint(&buf)
		text[name] = buf.String()
	}
	return text, serial, total
}

// Every table must come out byte for byte the same whether its
// simulations run one after another or four at a time. `make race`
// runs this under the race detector.
func TestWorkerCountInvariance(t *testing.T) {
	one, _, _ := renderAll(t, 1)
	four, _, _ := renderAll(t, 4)
	for _, name := range Experiments() {
		if one[name] != four[name] {
			t.Errorf("%s differs between 1 and 4 workers:\n--- 1 worker\n%s--- 4 workers\n%s", name, one[name], four[name])
		}
	}
}

// An experiment's simulations are independent, so it starts them in
// one fan-out and a second core is never idle behind a serial loop.
// Wall time cannot show that on one core; this count can. The only
// runs outside a fan-out are single runs that have nothing to run
// beside them.
//
// A suite also measures each cell once. The two percentile experiments
// ask only for cells measured earlier in paper order — the calibration
// cells by the §4 chain, AppServS's evaluation cells and the 1.4·N*
// Laplace cell by data-quantity — so they start no run at all.
func TestSerialSimulationCount(t *testing.T) {
	allowed := map[string]int{
		"stabilisation": 1, // one cold-start transient run is the whole experiment
		"bottleneck":    1, // the ceiling run whose throughput sizes the other nine
	}
	_, serial, total := renderAll(t, 2)
	for _, name := range Experiments() {
		if serial[name] != allowed[name] {
			t.Errorf("%s started %d simulator runs outside a fan-out, want %d", name, serial[name], allowed[name])
		}
	}
	for _, name := range []string{"percentiles", "percentile-direct"} {
		if total[name] != 0 {
			t.Errorf("%s started %d simulator runs, want 0: every cell it needs is measured earlier in paper order", name, total[name])
		}
	}
}

// The cell memo's key must hold every option that changes a result:
// all are exported through Suite.Opt, so a caller may change one
// between two measurements, and the second must not be served the
// first's run. And the memo is the suite's own, so two fresh suites at
// one seed share no run.
func TestMeasurementCacheKeyCoversOptions(t *testing.T) {
	cell := []measureCell{{arch: workload.AppServF(), clients: 300}}
	suite := func(set func(*trade.MeasureOptions)) *Suite {
		s := NewSuite(fanoutSeed + 1)
		s.Opt.WarmUp, s.Opt.Duration = 5, 20
		set(&s.Opt)
		return s
	}
	s := suite(func(*trade.MeasureOptions) {})
	measure := func() *trade.Result {
		t.Helper()
		res, err := measureCells(s, cell)
		if err != nil {
			t.Fatal(err)
		}
		return res[0]
	}
	if plain := measure(); plain.Duration != 20 || len(plain.PerClass["browse"].Samples) == 0 {
		t.Fatal("plain run should keep sample buffers and its fixed horizon")
	}
	s.Opt.Duration = 30
	if longer := measure(); longer.Duration != 30 {
		t.Fatalf("a 30 s measurement was served a %v s run", longer.Duration)
	}
	keys := map[string]bool{}
	for _, set := range []func(*trade.MeasureOptions){
		func(*trade.MeasureOptions) {},
		func(o *trade.MeasureOptions) { o.Seed++ },
		func(o *trade.MeasureOptions) { o.WarmUp = 5.4 },
		func(o *trade.MeasureOptions) { o.Duration = 30 },
		func(o *trade.MeasureOptions) { o.Workers = 3 }, // does not change a result
	} {
		keys[suite(set).cellKey(cell[0])] = true
	}
	if len(keys) != 4 {
		t.Fatalf("4 distinct result-changing option sets made %d distinct keys: %v", len(keys), keys)
	}
	// The default options keep the key they always had.
	if got, want := NewSuite(17).cellKey(cell[0]), "AppServF/300/0.0000/17/30/120"; got != want {
		t.Fatalf("default key %q, want %q", got, want)
	}

	reg := obs.NewRegistry()
	trade.EnableMetrics(reg)
	defer trade.EnableMetrics(nil)
	runs := reg.Counter("trade_runs")
	var started [2]uint64
	for i := range started {
		runs0 := runs.Value()
		if _, err := suite(func(*trade.MeasureOptions) {}).Run("figure2"); err != nil {
			t.Fatal(err)
		}
		started[i] = runs.Value() - runs0
	}
	if started[0] != started[1] {
		t.Fatalf("figure 2 on two fresh suites at one seed started %d and %d simulator runs", started[0], started[1])
	}
}
