package sim

import (
	"math"
	"testing"
)

func TestAliasTableDistribution(t *testing.T) {
	weights := []float64{1, 2, 3, 4}
	table := NewAliasTable(weights)
	s := NewStream(99)
	const n = 200000
	counts := make([]int, len(weights))
	for i := 0; i < n; i++ {
		counts[table.Pick(s)]++
	}
	var total float64
	for _, w := range weights {
		total += w
	}
	for i, w := range weights {
		got := float64(counts[i]) / n
		want := w / total
		if math.Abs(got-want) > 0.01 {
			t.Errorf("outcome %d frequency = %.4f, want %.4f ± 0.01", i, got, want)
		}
	}
}

// TestAliasTableSingleDraw pins the stream cost: one Pick consumes
// exactly one uniform draw, the same budget as Stream.Choose, so
// swapping one for the other keeps all other streams' sequences
// untouched.
func TestAliasTableSingleDraw(t *testing.T) {
	table := NewAliasTable([]float64{0.2, 0.5, 0.3})
	a, b := NewStream(7), NewStream(7)
	table.Pick(a)
	b.Float64()
	for i := 0; i < 8; i++ {
		if x, y := a.Float64(), b.Float64(); x != y {
			t.Fatalf("draw %d after Pick: %v, want %v — Pick consumed more than one draw", i, x, y)
		}
	}
}

func TestAliasTableDeterministic(t *testing.T) {
	table := NewAliasTable([]float64{3, 1, 2, 6, 0.5})
	a, b := NewStream(11), NewStream(11)
	for i := 0; i < 1000; i++ {
		if x, y := table.Pick(a), table.Pick(b); x != y {
			t.Fatalf("pick %d differs across identical streams: %d vs %d", i, x, y)
		}
	}
}

func TestAliasTableZeroWeightNeverPicked(t *testing.T) {
	table := NewAliasTable([]float64{1, 0, 1})
	s := NewStream(5)
	for i := 0; i < 10000; i++ {
		if table.Pick(s) == 1 {
			t.Fatal("picked a zero-weight outcome")
		}
	}
}

func TestAliasTablePanics(t *testing.T) {
	for name, weights := range map[string][]float64{
		"empty":    {},
		"negative": {1, -1},
		"zero":     {0, 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s weights should panic", name)
				}
			}()
			NewAliasTable(weights)
		}()
	}
}
