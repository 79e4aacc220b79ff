package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestP2QuantileUniform(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	med := NewP2Quantile(0.5)
	p90 := NewP2Quantile(0.9)
	for i := 0; i < 100000; i++ {
		x := r.Float64()
		med.Add(x)
		p90.Add(x)
	}
	if v := med.Value(); math.Abs(v-0.5) > 0.01 {
		t.Errorf("median of U(0,1) = %v, want 0.5 ± 0.01", v)
	}
	if v := p90.Value(); math.Abs(v-0.9) > 0.01 {
		t.Errorf("p90 of U(0,1) = %v, want 0.9 ± 0.01", v)
	}
}

func TestP2QuantileExponentialTail(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	est := NewP2Quantile(0.95)
	for i := 0; i < 200000; i++ {
		est.Add(r.ExpFloat64())
	}
	want := -math.Log(0.05) // ≈ 2.996
	if v := est.Value(); math.Abs(v-want)/want > 0.05 {
		t.Errorf("p95 of Exp(1) = %v, want %v ± 5%%", v, want)
	}
}

func TestP2QuantileSmallStreams(t *testing.T) {
	est := NewP2Quantile(0.5)
	if est.Value() != 0 {
		t.Fatal("empty estimator should report 0")
	}
	for _, x := range []float64{5, 1, 3} {
		est.Add(x)
	}
	// Below five observations the estimator answers exactly.
	if v, want := est.Value(), Percentile([]float64{1, 3, 5}, 50); v != want {
		t.Errorf("3-obs median = %v, want exact %v", v, want)
	}
	if est.Min() != 1 || est.Max() != 5 {
		t.Errorf("min/max = %v/%v, want 1/5", est.Min(), est.Max())
	}
	if est.Count() != 3 {
		t.Errorf("count = %d, want 3", est.Count())
	}
}

func TestP2QuantilePanicsOnBadP(t *testing.T) {
	for _, p := range []float64{0, 1, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("p=%v should panic", p)
				}
			}()
			NewP2Quantile(p)
		}()
	}
}
