package lqn

import (
	"math"
	"strings"
	"testing"

	"perfpred/internal/obs"
	"perfpred/internal/workload"
)

func tradeTestModel(t testing.TB, clients int) *Model {
	t.Helper()
	m, err := NewTradeModel(workload.AppServF(), workload.CaseStudyDB(), workload.CaseStudyDemands(), workload.MixedWorkload(clients, 0.25))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// requireSameResult asserts bit-exact equality of everything except
// SolveTime.
func requireSameResult(t *testing.T, got, want *Result) {
	t.Helper()
	if len(got.Classes) != len(want.Classes) {
		t.Fatalf("class count %d, want %d", len(got.Classes), len(want.Classes))
	}
	for name, w := range want.Classes {
		g, ok := got.Classes[name]
		if !ok {
			t.Fatalf("missing class %q", name)
		}
		if g != w {
			t.Fatalf("class %q = %+v, want %+v", name, g, w)
		}
	}
	for name, w := range want.ProcessorUtil {
		if g := got.ProcessorUtil[name]; g != w {
			t.Fatalf("util[%q] = %v, want %v", name, g, w)
		}
	}
	for name, wper := range want.ClassProcessorUtil {
		for cl, w := range wper {
			if g := got.ClassProcessorUtil[name][cl]; g != w {
				t.Fatalf("classUtil[%q][%q] = %v, want %v", name, cl, g, w)
			}
		}
	}
	if got.Iterations != want.Iterations || got.Converged != want.Converged {
		t.Fatalf("iterations/converged = %d/%v, want %d/%v", got.Iterations, got.Converged, want.Iterations, want.Converged)
	}
}

// A retained cold Solver must reproduce the one-shot Solve bit for bit,
// across population mutations on one model and across switches to
// different models (shape changes included).
func TestSolverMatchesSolveBitExact(t *testing.T) {
	s := NewSolver()

	m := tradeTestModel(t, 100)
	for _, n := range []int{100, 400, 1500, 3} {
		m.Classes[0].Population = n
		got, err := s.Solve(m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := Solve(m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, got, want)
	}

	// Model switch: different shape (single class, one processor).
	tiny := tinyModel()
	got, err := s.Solve(tiny, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Solve(tiny, Options{})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, got, want)

	// And back to the trade model.
	got, err = s.Solve(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err = Solve(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, got, want)
}

// Steady-state solves on a same-shaped model must not allocate: this is
// the acceptance criterion for the reusable workspace. The population
// alternates so the solver cannot trivially reuse a converged state.
func TestSolverZeroAllocSteadyState(t *testing.T) {
	m := tradeTestModel(t, 100)
	s := NewSolver()
	if _, err := s.Solve(m, Options{}); err != nil {
		t.Fatal(err)
	}
	n := 0
	allocs := testing.AllocsPerRun(200, func() {
		n++
		m.Classes[0].Population = 100 + 50*(n%2)
		res, err := s.Solve(m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.MeanResponseTime() <= 0 || res.TotalThroughput() <= 0 {
			t.Fatal("non-positive class sums")
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Solve allocates %v allocs/op, want 0", allocs)
	}
}

func TestSolverZeroAllocWarmStart(t *testing.T) {
	m := tradeTestModel(t, 100)
	s := NewSolver()
	s.WarmStart = true
	if _, err := s.Solve(m, Options{}); err != nil {
		t.Fatal(err)
	}
	n := 0
	allocs := testing.AllocsPerRun(200, func() {
		n++
		m.Classes[0].Population = 100 + 10*(n%4)
		if _, err := s.Solve(m, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm-started Solve allocates %v allocs/op, want 0", allocs)
	}
}

// TestSolverZeroAllocWithMetrics repeats the steady-state zero-alloc
// contract with the observability layer registered and enabled: the
// per-solve record path is a handful of atomic adds, so turning
// metrics on must not cost an allocation.
func TestSolverZeroAllocWithMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	obs.Bind(reg)
	defer obs.Bind(nil)
	m := tradeTestModel(t, 100)
	s := NewSolver()
	s.WarmStart = true
	if _, err := s.Solve(m, Options{}); err != nil {
		t.Fatal(err)
	}
	n := 0
	allocs := testing.AllocsPerRun(200, func() {
		n++
		m.Classes[0].Population = 100 + 50*(n%2)
		if _, err := s.Solve(m, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("metrics-enabled Solve allocates %v allocs/op, want 0", allocs)
	}
	snap := reg.Snapshot()
	if snap.Counters["lqn_solver_solves"] == 0 {
		t.Fatal("metrics enabled but lqn_solver_solves stayed zero")
	}
	if snap.Counters["lqn_solver_mva_iterations"] == 0 {
		t.Fatal("metrics enabled but lqn_solver_mva_iterations stayed zero")
	}
	if snap.Counters["lqn_solver_warm_hits"] == 0 {
		t.Fatal("warm-started sweep recorded no lqn_solver_warm_hits")
	}
}

// Warm starts must converge to the same fixed point (within the
// convergence tolerance) while spending strictly fewer iterations over
// an adjacent-population sweep.
func TestSolverWarmStartSweep(t *testing.T) {
	mWarm := tradeTestModel(t, 50)
	mCold := tradeTestModel(t, 50)
	warm := NewSolver()
	warm.WarmStart = true
	cold := NewSolver()

	warmIters, coldIters := 0, 0
	for n := 50; n <= 2000; n += 50 {
		mWarm.Classes[0].Population = n
		mCold.Classes[0].Population = n
		rw, err := warm.Solve(mWarm, Options{})
		if err != nil {
			t.Fatal(err)
		}
		warmIters += rw.Iterations
		rc, err := cold.Solve(mCold, Options{})
		if err != nil {
			t.Fatal(err)
		}
		coldIters += rc.Iterations
		if !rw.Converged || !rc.Converged {
			t.Fatalf("n=%d: converged warm=%v cold=%v", n, rw.Converged, rc.Converged)
		}
		for name, c := range rc.Classes {
			w := rw.Classes[name]
			if d := math.Abs(w.ResponseTime - c.ResponseTime); d > 1e-3*(1+c.ResponseTime) {
				t.Fatalf("n=%d class %q: warm RT %v vs cold %v", n, name, w.ResponseTime, c.ResponseTime)
			}
			if d := math.Abs(w.Throughput - c.Throughput); d > 1e-3*(1+c.Throughput) {
				t.Fatalf("n=%d class %q: warm X %v vs cold %v", n, name, w.Throughput, c.Throughput)
			}
		}
	}
	if warmIters >= coldIters {
		t.Fatalf("warm sweep spent %d iterations, cold %d — warm start saved nothing", warmIters, coldIters)
	}
	t.Logf("sweep iterations: warm %d vs cold %d (%.0f%% saved)", warmIters, coldIters, 100*(1-float64(warmIters)/float64(coldIters)))
}

// invalidateDemands after an in-place retune must match a from-scratch
// rebuild bit for bit.
func TestSolverInvalidateDemandsMatchesRebuild(t *testing.T) {
	demands := workload.CaseStudyDemands()
	m := tradeTestModel(t, 400)
	s := NewSolver()
	if _, err := s.Solve(m, Options{}); err != nil {
		t.Fatal(err)
	}

	scaled := make(map[workload.RequestType]workload.Demand, len(demands))
	for rt, d := range demands {
		d.AppServerTime *= 1.3
		d.DBCallsPerRequest *= 0.9
		scaled[rt] = d
	}
	if err := retuneTradeModel(m, scaled); err != nil {
		t.Fatal(err)
	}
	s.invalidateDemands()
	got, err := s.Solve(m, Options{})
	if err != nil {
		t.Fatal(err)
	}

	fresh, err := NewTradeModel(workload.AppServF(), workload.CaseStudyDB(), scaled, workload.MixedWorkload(400, 0.25))
	if err != nil {
		t.Fatal(err)
	}
	want, err := Solve(fresh, Options{})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, got, want)
}

// Without invalidateDemands the solver keeps serving the cached
// folding — the documented contract for in-place demand edits.
func TestSolverStaleWithoutInvalidate(t *testing.T) {
	m := tinyModel()
	s := NewSolver()
	before, err := s.Solve(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	beforeRT := before.Classes["users"].ResponseTime
	m.Tasks[0].Entries[0].Demand *= 2
	stale, err := s.Solve(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stale.Classes["users"].ResponseTime != beforeRT {
		t.Fatal("demand edit visible without invalidateDemands; cache is not being exercised")
	}
	s.invalidateDemands()
	after, err := s.Solve(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if after.Classes["users"].ResponseTime <= beforeRT {
		t.Fatal("invalidateDemands did not pick up the demand edit")
	}
}

// A class flipping between open and closed on the same model pointer
// must be detected and re-planned, not mis-solved.
func TestSolverOpenClosedFlip(t *testing.T) {
	m := tinyModel()
	s := NewSolver()
	if _, err := s.Solve(m, Options{}); err != nil {
		t.Fatal(err)
	}
	m.Classes[0].Population = 0
	m.Classes[0].ArrivalRate = 10
	got, err := s.Solve(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Solve(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, got, want)
	if got.Classes["users"].Throughput != 10 {
		t.Fatalf("open class throughput %v, want the arrival rate 10", got.Classes["users"].Throughput)
	}
}

// Parameter guards still fire on the cached fast path, where full
// validation is skipped.
func TestSolverRejectsBadParametersOnCacheHit(t *testing.T) {
	m := tinyModel()
	s := NewSolver()
	if _, err := s.Solve(m, Options{}); err != nil {
		t.Fatal(err)
	}
	m.Classes[0].Population = -1
	if _, err := s.Solve(m, Options{}); err == nil || !strings.Contains(err.Error(), "negative population") {
		t.Fatalf("want negative-population error, got %v", err)
	}
	m.Classes[0].Population = 5
	m.Classes[0].Think = -1
	if _, err := s.Solve(m, Options{}); err == nil || !strings.Contains(err.Error(), "negative think") {
		t.Fatalf("want negative-think error, got %v", err)
	}
}

func TestResultClone(t *testing.T) {
	m := tinyModel()
	s := NewSolver()
	res, err := s.Solve(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	clone := res.Clone()
	firstRT := clone.Classes["users"].ResponseTime
	m.Classes[0].Population = 5000
	if _, err := s.Solve(m, Options{}); err != nil {
		t.Fatal(err)
	}
	if clone.Classes["users"].ResponseTime != firstRT {
		t.Fatal("clone mutated by a later Solve on the same workspace")
	}
	if res.Classes["users"].ResponseTime == firstRT {
		t.Fatal("solver result unexpectedly not reused; zero-alloc reuse is broken")
	}
}

func TestRetuneTradeModelRejectsStructureChanges(t *testing.T) {
	demands := map[workload.RequestType]workload.Demand{
		workload.Browse: {AppServerTime: 0.005, DBTimePerCall: 0.001, DBCallsPerRequest: 1, DBLatencyPerCall: 0.002},
	}
	m, err := NewTradeModel(workload.AppServF(), workload.CaseStudyDB(), demands, workload.TypicalWorkload(10))
	if err != nil {
		t.Fatal(err)
	}
	// Dropping the latency term changes the model structure.
	noLat := map[workload.RequestType]workload.Demand{
		workload.Browse: {AppServerTime: 0.005, DBTimePerCall: 0.001, DBCallsPerRequest: 1},
	}
	if err := retuneTradeModel(m, noLat); err == nil || !strings.Contains(err.Error(), "latency structure") {
		t.Fatalf("want latency-structure error, got %v", err)
	}
	// Unknown request types need a rebuild.
	extra := map[workload.RequestType]workload.Demand{
		workload.Buy: {AppServerTime: 0.005, DBTimePerCall: 0.001, DBCallsPerRequest: 1},
	}
	if err := retuneTradeModel(m, extra); err == nil || !strings.Contains(err.Error(), "rebuild") {
		t.Fatalf("want rebuild error, got %v", err)
	}
	// Critical sections fold work into entry demands; retuning would
	// silently drop it.
	m2 := tradeTestModel(t, 10)
	if err := AddCriticalSection(m2, workload.AppServF().Speed, 0.001, 0.1); err != nil {
		t.Fatal(err)
	}
	if err := retuneTradeModel(m2, workload.CaseStudyDemands()); err == nil || !strings.Contains(err.Error(), "critical section") {
		t.Fatalf("want critical-section error, got %v", err)
	}
}

// The layered path through a retained Solver must match the one-shot
// entry point.
func TestSolverTaskLayeringMatchesSolve(t *testing.T) {
	m := tradeTestModel(t, 300)
	s := NewSolver()
	got, err := s.Solve(m, Options{TaskLayering: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Solve(m, Options{TaskLayering: true})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, got, want)
	// Flat solve right after a layered one must not reuse a stale warm
	// seed (the layered path never produces Schweitzer iterates).
	s.WarmStart = true
	gotFlat, err := s.Solve(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantFlat, err := Solve(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, gotFlat, wantFlat)
}

// Result sums must add classes in model order, not map order: float
// addition is not associative, so with three or more classes a map walk
// moves the last bits between identical solves. A hand-built Result
// carries no order and still sums (over the map).
func TestResultSumsStableAcrossSolves(t *testing.T) {
	m := tradeTestModel(t, 700)
	third := *m.Classes[1]
	third.Name, third.Population, third.Think = "bulk", 333, 3.1
	m.Classes = append(m.Classes, &third)

	var wantRT, wantX uint64
	for i := 0; i < 200; i++ {
		res, err := Solve(m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		rt, x := math.Float64bits(res.MeanResponseTime()), math.Float64bits(res.TotalThroughput())
		if i == 0 {
			wantRT, wantX = rt, x
			var x0 float64
			for _, cl := range m.Classes {
				x0 += res.Classes[cl.Name].Throughput
			}
			if math.Float64bits(x0) != x {
				t.Fatalf("TotalThroughput %x is not the model-order sum %x", x, math.Float64bits(x0))
			}
			continue
		}
		if rt != wantRT || x != wantX {
			t.Fatalf("solve %d: mean RT bits %x (want %x), throughput bits %x (want %x)", i, rt, wantRT, x, wantX)
		}
	}

	hand := &Result{Classes: map[string]ClassResult{"a": {ResponseTime: 2, Throughput: 1}, "b": {ResponseTime: 4, Throughput: 3}}}
	if got := hand.MeanResponseTime(); got != 3.5 {
		t.Fatalf("hand-built mean RT = %v, want 3.5", got)
	}
	if got := hand.TotalThroughput(); got != 4 {
		t.Fatalf("hand-built throughput = %v, want 4", got)
	}
}
