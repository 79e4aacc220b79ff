package bench

import (
	"bytes"
	"testing"

	"perfpred/internal/obs"
	"perfpred/internal/parallel"
	"perfpred/internal/trade"
	"perfpred/internal/workload"
)

// fanoutSeed is used by no other test, so with the measurement cache
// emptied first every simulation below really runs.
const fanoutSeed = 2003

// hostTimed names, per experiment, the first column that prints host
// timings (0: the whole table) — the columns benchmark/paper.go leaves
// out of its golden comparison.
var hostTimed = map[string]int{"delay": 0, "ablation-mva": 4}

// renderAll runs all 27 experiments in paper order on one fresh
// short-window suite with a cold measurement cache. It returns each
// table's text without its host-timed columns, and per experiment the
// number of simulator runs started outside a fan-out: the simulator's
// own run count minus the runs the suite's fan-outs started.
func renderAll(t *testing.T, workers int) (text map[string]string, serial map[string]int) {
	t.Helper()
	curveCache = parallel.Memo[string, *trade.Result]{}
	reg := obs.NewRegistry()
	trade.EnableMetrics(reg)
	defer trade.EnableMetrics(nil)
	runs := reg.Counter("trade_runs")

	s := NewSuite(fanoutSeed)
	s.Opt.WarmUp, s.Opt.Duration, s.Opt.Workers = 5, 20, workers
	text, serial = map[string]string{}, map[string]int{}
	for _, name := range Experiments() {
		runs0, fanned0 := runs.Value(), s.fannedRuns.Load()
		tab, err := s.Run(name)
		if err != nil {
			t.Fatalf("%s at %d workers: %v", name, workers, err)
		}
		serial[name] = int(runs.Value()-runs0) - int(s.fannedRuns.Load()-fanned0)
		if col, timed := hostTimed[name]; timed {
			for i, row := range tab.Rows {
				tab.Rows[i] = row[:col]
			}
		}
		var buf bytes.Buffer
		tab.Fprint(&buf)
		text[name] = buf.String()
	}
	return text, serial
}

// Every table must come out byte for byte the same whether its
// simulations run one after another or four at a time. `make race`
// runs this under the race detector.
func TestWorkerCountInvariance(t *testing.T) {
	one, _ := renderAll(t, 1)
	four, _ := renderAll(t, 4)
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
func TestSerialSimulationCount(t *testing.T) {
	allowed := map[string]int{
		"percentiles":   1, // the Laplace-scale calibration run, sized by the gradient; every grid cell is already cached by figure2
		"stabilisation": 1, // one cold-start transient run is the whole experiment
		"bottleneck":    1, // the ceiling run whose throughput sizes the other nine
	}
	_, serial := renderAll(t, 2)
	for _, name := range Experiments() {
		if serial[name] != allowed[name] {
			t.Errorf("%s started %d simulator runs outside a fan-out, want %d", name, serial[name], allowed[name])
		}
	}
}

// The measurement cache is process-wide, so its key must hold every
// option that changes a result: two suites at one seed that differ in
// such an option (all are exported through Suite.Opt) must not share
// runs — the longer suite below must not get the plain one's horizon.
func TestMeasurementCacheKeyCoversOptions(t *testing.T) {
	cell := []measureCell{{arch: workload.AppServF(), clients: 300}}
	suite := func(set func(*trade.MeasureOptions)) *Suite {
		s := NewSuite(fanoutSeed + 1)
		s.Opt.WarmUp, s.Opt.Duration = 5, 20
		set(&s.Opt)
		return s
	}
	measure := func(s *Suite) *trade.Result {
		t.Helper()
		res, err := measureCells(s, cell)
		if err != nil {
			t.Fatal(err)
		}
		return res[0]
	}
	plain := measure(suite(func(*trade.MeasureOptions) {}))
	if plain.Duration != 20 || len(plain.PerClass["browse"].Samples) == 0 {
		t.Fatal("plain run should keep sample buffers and its fixed horizon")
	}
	if longer := measure(suite(func(o *trade.MeasureOptions) { o.Duration = 30 })); longer.Duration != 30 {
		t.Fatalf("30 s suite was served a %v s run", longer.Duration)
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
}
