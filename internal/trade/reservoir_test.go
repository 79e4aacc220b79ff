package trade

import (
	"math"
	"testing"

	"perfpred/internal/sim"
	"perfpred/internal/stats"
)

// TestReservoirExactBelowCapacity pins the boundary behaviour: up to
// maxSample observations the buffer retains everything — quantiles are
// exact, no replacement draws are made — and the first observation past
// capacity switches to reservoir replacement without growing the
// buffer.
func TestReservoirExactBelowCapacity(t *testing.T) {
	acc := &classAcc{maxSample: 100, rng: sim.NewStream(1)}
	data := sim.NewStream(2)
	var all []float64
	for i := 0; i < 100; i++ {
		v := data.Exp(1)
		all = append(all, v)
		acc.record(v)
	}
	if len(acc.samples) != 100 {
		t.Fatalf("at capacity: %d samples, want 100", len(acc.samples))
	}
	for i, v := range all {
		if acc.samples[i] != v {
			t.Fatalf("sample %d mutated during filling phase", i)
		}
	}
	// The replacement stream must be untouched during the filling
	// phase: its first draw still matches a fresh stream's.
	if acc.rng.Intn(1000) != sim.NewStream(1).Intn(1000) {
		t.Fatal("reservoir stream consumed draws before the buffer filled")
	}
	acc.rng = sim.NewStream(1)
	acc.record(data.Exp(1))
	if len(acc.samples) != 100 {
		t.Fatalf("past capacity: %d samples, want 100 (bounded)", len(acc.samples))
	}
}

// TestReservoirQuantileUnbiased compares reservoir-estimated quantiles
// against exact quantiles of the same stream: individual reservoirs
// scatter, but across seeds the estimates centre on the truth.
func TestReservoirQuantileUnbiased(t *testing.T) {
	const n = 20000
	const cap = 500
	data := sim.NewStream(9)
	all := make([]float64, n)
	for i := range all {
		all[i] = data.Exp(1)
	}
	exact50 := stats.Percentile(append([]float64(nil), all...), 50)
	exact90 := stats.Percentile(append([]float64(nil), all...), 90)

	var sum50, sum90 float64
	const seeds = 30
	for seed := int64(0); seed < seeds; seed++ {
		acc := &classAcc{maxSample: cap, rng: sim.NewStream(seed)}
		for _, v := range all {
			acc.record(v)
		}
		if acc.seen != n || len(acc.samples) != cap {
			t.Fatalf("seen=%d len=%d, want %d and %d", acc.seen, len(acc.samples), n, cap)
		}
		sum50 += stats.Percentile(append([]float64(nil), acc.samples...), 50)
		sum90 += stats.Percentile(append([]float64(nil), acc.samples...), 90)
	}
	if avg := sum50 / seeds; math.Abs(avg-exact50)/exact50 > 0.05 {
		t.Errorf("mean reservoir p50 = %v, exact %v: bias beyond 5%%", avg, exact50)
	}
	if avg := sum90 / seeds; math.Abs(avg-exact90)/exact90 > 0.05 {
		t.Errorf("mean reservoir p90 = %v, exact %v: bias beyond 5%%", avg, exact90)
	}
}
