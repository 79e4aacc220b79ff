package scenario

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"perfpred/internal/sim"
	"perfpred/internal/stats"
	"perfpred/internal/workload"
)

func TestPatternScales(t *testing.T) {
	flash := compilePattern(&PatternSpec{Kind: PatternFlash, Start: 100, Ramp: 10, Hold: 20, Decay: 40, Peak: 5})
	for _, tc := range []struct{ t, want float64 }{
		{0, 1}, {99, 1}, {105, 3}, {110, 5}, {125, 5}, {130, 5}, {150, 3}, {170, 1}, {1000, 1},
	} {
		if got := flash.scale(tc.t); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("flash Scale(%v) = %v, want %v", tc.t, got, tc.want)
		}
	}
	if flash.maxScale() != 5 {
		t.Errorf("flash maxScale = %v, want 5", flash.maxScale())
	}

	di := compilePattern(&PatternSpec{Kind: PatternDiurnal, Period: 100, Amplitude: 0.4})
	if got := di.scale(25); math.Abs(got-1.4) > 1e-9 {
		t.Errorf("diurnal peak Scale = %v, want 1.4", got)
	}
	if got := di.scale(75); math.Abs(got-0.6) > 1e-9 {
		t.Errorf("diurnal trough Scale = %v, want 0.6", got)
	}
	if got := di.meanScale(1000); math.Abs(got-1) > 1e-9 {
		t.Errorf("diurnal whole-cycle meanScale = %v, want 1", got)
	}
	if got := di.meanScale(25); got < 1.2 {
		t.Errorf("diurnal quarter-cycle meanScale = %v, want > 1.2 (rising half)", got)
	}

	pw := compilePattern(&PatternSpec{Kind: PatternPiecewise, Cycle: true,
		Periods: []PeriodSpec{{Duration: 10, Scale: 2}, {Duration: 30, Scale: 0.5}}})
	if got := pw.scale(5); got != 2 {
		t.Errorf("piecewise Scale(5) = %v, want 2", got)
	}
	if got := pw.scale(45); got != 2 { // wrapped into second cycle
		t.Errorf("piecewise Scale(45) = %v, want 2", got)
	}
	want := (10*2 + 30*0.5) / 40
	if got := pw.meanScale(4000); math.Abs(got-want) > 1e-9 {
		t.Errorf("piecewise meanScale = %v, want %v", got, want)
	}

	once := compilePattern(&PatternSpec{Kind: PatternPiecewise,
		Periods: []PeriodSpec{{Duration: 10, Scale: 3}}})
	if got := once.scale(11); got != 1 {
		t.Errorf("finished schedule Scale = %v, want 1 (base-rate tail)", got)
	}
	if got := once.maxScale(); got != 3 {
		t.Errorf("finished schedule maxScale = %v, want 3", got)
	}

	var nilPat *Pattern
	if nilPat.scale(42) != 1 || nilPat.maxScale() != 1 || nilPat.meanScale(10) != 1 {
		t.Error("nil pattern must be the constant 1")
	}
}

// Regression: flash meanScale previously approximated a horizon that
// cuts mid-ramp or mid-decay by crediting half the *full* triangle
// instead of integrating the clipped slope. The trapezoid integral is
// closed-form; pin it.
func TestFlashMeanScaleExact(t *testing.T) {
	flash := compilePattern(&PatternSpec{Kind: PatternFlash, Start: 100, Ramp: 10, Hold: 20, Decay: 40, Peak: 5})

	// Horizon at the ramp midpoint: the clipped ramp triangle has area
	// (peak−1)·ramp/8 = 4·10/8 = 5 above the base line, so
	// meanScale(105) = (105 + 5)/105. The old linear split credited
	// (peak−1)/2 · 5 = 10 instead.
	if got, want := flash.meanScale(105), 110.0/105; math.Abs(got-want) > 1e-12 {
		t.Errorf("mid-ramp meanScale = %v, want %v", got, want)
	}

	// Horizon 15 s into the decay (s2 = 130): extra = full ramp 20 +
	// full hold 80 + 4·(15 − 15²/80) = 148.75.
	if got, want := flash.meanScale(145), (145+148.75)/145; math.Abs(got-want) > 1e-12 {
		t.Errorf("mid-decay meanScale = %v, want %v", got, want)
	}

	// Horizons that cover phases fully or not at all must match the old
	// half-triangle arithmetic exactly — the committed scenario goldens
	// depend on these.
	if got, want := flash.meanScale(100), 1.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("pre-flash meanScale = %v, want %v", got, want)
	}
	if got, want := flash.meanScale(200), (200+20+80+80)/200.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("whole-flash meanScale = %v, want %v", got, want)
	}

	// Numerical cross-check on an awkward horizon: midpoint Riemann sum
	// of Scale must agree with the closed form.
	for _, horizon := range []float64{103.7, 131.2, 152.9, 169.99} {
		const steps = 2_000_000
		dt := horizon / steps
		var area float64
		for i := 0; i < steps; i++ {
			area += flash.scale((float64(i) + 0.5) * dt)
		}
		got := flash.meanScale(horizon)
		if want := area / steps; math.Abs(got-want) > 1e-6 {
			t.Errorf("meanScale(%v) = %v, Riemann sum %v", horizon, got, want)
		}
	}

	// Spec validation allows a zero ramp or decay (instant rise/drop);
	// the trapezoid terms must not divide by zero.
	step := compilePattern(&PatternSpec{Kind: PatternFlash, Start: 10, Ramp: 0, Hold: 5, Decay: 5, Peak: 3})
	if got, want := step.meanScale(12), (12+2*2.0)/12; math.Abs(got-want) > 1e-12 {
		t.Errorf("zero-ramp meanScale = %v, want %v", got, want)
	}
	drop := compilePattern(&PatternSpec{Kind: PatternFlash, Start: 10, Ramp: 4, Hold: 6, Decay: 0, Peak: 3})
	if got, want := drop.meanScale(30), (30+2*4/2.0+2*6)/30; math.Abs(got-want) > 1e-12 {
		t.Errorf("zero-decay meanScale = %v, want %v", got, want)
	}
}

func TestDistSampling(t *testing.T) {
	rng := sim.NewStream(7)
	for _, tc := range []struct {
		spec   DistSpec
		wantCV float64
	}{
		{Exponential(5), 1},
		{Lognormal(5, 1.5), 1.5},
		{Deterministic(5), 0},
	} {
		d := compileDist(&tc.spec)
		var acc stats.Accumulator
		for i := 0; i < 200000; i++ {
			v := d.Sample(rng)
			if v < 0 {
				t.Fatalf("%s draw %v < 0", tc.spec.Dist, v)
			}
			acc.Add(v)
		}
		if m := acc.Mean(); math.Abs(m-5)/5 > 0.03 {
			t.Errorf("%s mean %v, want ≈ 5", tc.spec.Dist, m)
		}
		cv := acc.StdDev() / acc.Mean()
		if math.Abs(cv-tc.wantCV) > 0.1 {
			t.Errorf("%s CV %v, want ≈ %v", tc.spec.Dist, cv, tc.wantCV)
		}
	}
}

func genTimes(t *testing.T, c *Cohort, seed int64, horizon float64) []float64 {
	t.Helper()
	g := NewGen(c, sim.NewStream(sim.SplitSeed(seed, 0)), sim.NewStream(sim.SplitSeed(seed, 1)))
	var times []float64
	for {
		at, _, ok := g.Next()
		if !ok || at > horizon {
			break
		}
		times = append(times, at)
	}
	return times
}

func TestPoissonGenMatchesRate(t *testing.T) {
	c, err := New("p").AddPoisson("api", 25, browseMix()).Compile("")
	if err != nil {
		t.Fatal(err)
	}
	times := genTimes(t, c.Cohorts[0], 99, 2000)
	rate := float64(len(times)) / 2000
	if math.Abs(rate-25)/25 > 0.05 {
		t.Fatalf("observed rate %v, want ≈ 25", rate)
	}
	if cv2 := stats.InterarrivalCV2(times); cv2 < 0.9 || cv2 > 1.1 {
		t.Fatalf("Poisson CV² %v, want ≈ 1", cv2)
	}
}

func TestMMPPGenOverdispersed(t *testing.T) {
	c, err := New("m").AddMMPP("burst",
		[]MMPPStateSpec{{Rate: 2, MeanDwell: 30}, {Rate: 40, MeanDwell: 6}}, browseMix()).Compile("")
	if err != nil {
		t.Fatal(err)
	}
	co := c.Cohorts[0]
	times := genTimes(t, co, 5, 20000)
	rate := float64(len(times)) / 20000
	if math.Abs(rate-co.MeanRate)/co.MeanRate > 0.05 {
		t.Fatalf("observed rate %v, want ≈ stationary %v", rate, co.MeanRate)
	}
	if cv2 := stats.InterarrivalCV2(times); cv2 < 1.5 {
		t.Fatalf("MMPP CV² %v, want ≫ 1", cv2)
	}
	if idc := stats.IndexOfDispersion(times, 10); idc < 2 {
		t.Fatalf("MMPP IDC %v, want ≫ 1", idc)
	}
}

func TestFlashPatternShapesArrivals(t *testing.T) {
	c, err := New("f").AddPoisson("shop", 20, browseMix()).
		Pattern(FlashSale(300, 30, 120, 60, 4)).Compile("")
	if err != nil {
		t.Fatal(err)
	}
	times := genTimes(t, c.Cohorts[0], 3, 600)
	countIn := func(lo, hi float64) float64 {
		n := 0
		for _, at := range times {
			if at >= lo && at < hi {
				n++
			}
		}
		return float64(n) / (hi - lo)
	}
	base := countIn(0, 300)
	peak := countIn(330, 450)
	after := countIn(510, 600)
	if math.Abs(base-20)/20 > 0.15 {
		t.Fatalf("pre-flash rate %v, want ≈ 20", base)
	}
	if math.Abs(peak-80)/80 > 0.15 {
		t.Fatalf("flash-hold rate %v, want ≈ 80", peak)
	}
	if math.Abs(after-20)/20 > 0.3 {
		t.Fatalf("post-flash rate %v, want ≈ 20", after)
	}
}

func TestGenDeterministicAcrossSplit(t *testing.T) {
	c, err := New("d").AddMMPP("burst",
		[]MMPPStateSpec{{Rate: 5, MeanDwell: 10}, {Rate: 50, MeanDwell: 2}}, browseMix()).Compile("")
	if err != nil {
		t.Fatal(err)
	}
	a := genTimes(t, c.Cohorts[0], 17, 500)
	b := genTimes(t, c.Cohorts[0], 17, 500)
	if len(a) != len(b) {
		t.Fatalf("replays diverge in count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverges at arrival %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func writeTrace(t *testing.T, lines string) string {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.csv")
	if err := os.WriteFile(path, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestTraceReplay(t *testing.T) {
	path := writeTrace(t, "time,type\n0.5,browse\n1.0,buy\n2.5,browse\n# comment\n4.0,browse\n")
	tr, err := loadTrace(path, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) != 4 {
		t.Fatalf("got %d events, want 4", len(tr.Events))
	}
	mix := tr.mix()
	if mix[workload.Browse] != 0.75 || mix[workload.Buy] != 0.25 {
		t.Fatalf("trace mix %v, want browse 0.75 / buy 0.25", mix)
	}

	co := &Cohort{Kind: ProcTrace, Trace: tr}
	g := NewGen(co, sim.NewStream(1), sim.NewStream(2))
	var got []TraceEvent
	for {
		at, rt, ok := g.Next()
		if !ok {
			break
		}
		got = append(got, TraceEvent{T: at, Type: rt})
	}
	if len(got) != 4 || got[0] != (TraceEvent{0.5, workload.Browse}) || got[3] != (TraceEvent{4.0, workload.Browse}) {
		t.Fatalf("replay events %v", got)
	}
}

func TestTraceLoopKeepsRate(t *testing.T) {
	path := writeTrace(t, "0.0,browse\n1.0,browse\n2.0,browse\n3.0,browse\n")
	tr, err := loadTrace(path, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Cycle = last arrival (3) + mean gap (1) = 4; rate 1/s.
	if tr.Cycle != 4 {
		t.Fatalf("derived cycle %v, want 4", tr.Cycle)
	}
	co := &Cohort{Kind: ProcTrace, Trace: tr}
	g := NewGen(co, sim.NewStream(1), sim.NewStream(2))
	var last float64
	n := 0
	for n < 1000 {
		at, _, ok := g.Next()
		if !ok {
			t.Fatal("looping trace must never exhaust")
		}
		if at < last {
			t.Fatalf("looped replay went backwards: %v after %v", at, last)
		}
		last = at
		n++
	}
	rate := float64(n) / last
	if math.Abs(rate-1) > 0.05 {
		t.Fatalf("looped rate %v, want ≈ 1", rate)
	}
}

func TestTraceErrors(t *testing.T) {
	if _, err := loadTrace(writeTrace(t, "1.0,browse\n0.5,buy\n"), false, 0); err == nil {
		t.Fatal("out-of-order trace accepted")
	}
	if _, err := loadTrace(writeTrace(t, "# nothing\n"), false, 0); err == nil {
		t.Fatal("empty trace accepted")
	}
	if _, err := loadTrace(writeTrace(t, "abc\n"), false, 0); err == nil {
		t.Fatal("malformed line accepted")
	}
	if _, err := loadTrace(writeTrace(t, "1.0,\n"), false, 0); err == nil {
		t.Fatal("empty type accepted")
	}
	if _, err := loadTrace(writeTrace(t, "0,browse\n5,browse\n"), true, 3); err == nil {
		t.Fatal("cycle shorter than trace accepted")
	}
}

func TestSelfCheckVerdicts(t *testing.T) {
	c, err := New("sc").
		AddPoisson("steady", 30, browseMix()).
		AddMMPP("burst", []MMPPStateSpec{{Rate: 2, MeanDwell: 30}, {Rate: 40, MeanDwell: 6}}, browseMix()).
		AddClosed("shoppers", 10, Exponential(7), browseMix()).
		Compile("")
	if err != nil {
		t.Fatal(err)
	}
	reports := SelfCheck(c, 41, 5000)
	if len(reports) != 2 {
		t.Fatalf("got %d reports, want 2 (closed cohorts skipped)", len(reports))
	}
	for _, r := range reports {
		if !r.OK {
			t.Errorf("cohort %s failed self-check: %s (rate %v want %v, CV² %v, IDC %v)",
				r.Cohort, r.Reason, r.MeanRate, r.WantRate, r.CV2, r.IDC)
		}
	}
	if reports[1].CV2 <= reports[0].CV2 {
		t.Errorf("MMPP CV² %v not above Poisson CV² %v", reports[1].CV2, reports[0].CV2)
	}
	// The committed example specs generate the traffic they declare.
	for _, name := range []string{"flashsale", "diurnal", "replay"} {
		c, err := Load("../../examples/scenarios/" + name + ".json")
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range SelfCheck(c, 17, 5000) {
			if !r.OK {
				t.Errorf("%s.json cohort %s failed self-check: %s", name, r.Cohort, r.Reason)
			}
		}
	}
}
