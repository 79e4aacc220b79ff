package stats

import (
	"math"
	"testing"
)

func TestBatchMeansHalfWidth(t *testing.T) {
	var bm BatchMeans
	if !math.IsInf(bm.HalfWidth(0.95), 1) {
		t.Fatal("no batches: half-width should be +Inf")
	}
	bm.Add(3)
	if !math.IsInf(bm.HalfWidth(0.95), 1) {
		t.Fatal("one batch: half-width should be +Inf")
	}
	for _, x := range []float64{1, 2, 4, 5} {
		bm.Add(x)
	}
	// Batches {3,1,2,4,5}: mean 3, sample sd sqrt(2.5), df 4.
	if bm.Count() != 5 || bm.Mean() != 3 {
		t.Fatalf("count=%d mean=%v, want 5 and 3", bm.Count(), bm.Mean())
	}
	want := 2.776 * math.Sqrt(2.5) / math.Sqrt(5)
	if hw := bm.HalfWidth(0.95); math.Abs(hw-want) > 1e-9 {
		t.Errorf("half-width = %v, want %v", hw, want)
	}
	if rel := bm.RelHalfWidth(0.95); math.Abs(rel-want/3) > 1e-9 {
		t.Errorf("relative half-width = %v, want %v", rel, want/3)
	}
	if bm.Converged(0.5, 0.95) {
		t.Error("rel half-width ≈ 0.65 should not satisfy target 0.5")
	}
	if !bm.Converged(0.7, 0.95) {
		t.Error("rel half-width ≈ 0.65 should satisfy target 0.7")
	}
}

func TestBatchMeansZeroMean(t *testing.T) {
	var bm BatchMeans
	bm.Add(1)
	bm.Add(-1)
	if !math.IsInf(bm.RelHalfWidth(0.95), 1) {
		t.Fatal("zero grand mean: relative half-width should be +Inf")
	}
}

func TestBatchMeansNarrowsWithBatches(t *testing.T) {
	var bm BatchMeans
	for i := 0; i < 4; i++ {
		bm.Add(10 + float64(i%2)) // alternating 10, 11
	}
	wide := bm.RelHalfWidth(0.95)
	for i := 0; i < 60; i++ {
		bm.Add(10 + float64(i%2))
	}
	if narrow := bm.RelHalfWidth(0.95); narrow >= wide {
		t.Fatalf("more batches should narrow the interval: %v -> %v", wide, narrow)
	}
}

func TestTQuantile(t *testing.T) {
	cases := []struct {
		level float64
		df    int
		want  float64
	}{
		{0.95, 1, 12.706},
		{0.95, 30, 2.042},
		{0.95, 1000, 1.960}, // beyond the table: normal approximation
		{0.90, 5, 2.015},
		{0.99, 10, 3.169},
		{0.80, 5, 2.571},  // unknown level falls back to 0.95
		{0.95, 0, 12.706}, // df floor
	}
	for _, c := range cases {
		if got := tQuantile(c.level, c.df); got != c.want {
			t.Errorf("tQuantile(%v, %d) = %v, want %v", c.level, c.df, got, c.want)
		}
	}
}
