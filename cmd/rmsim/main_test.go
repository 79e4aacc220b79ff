package main

import (
	"math"
	"testing"
)

// The slack levels come from three flags: `rmsim slacks -step 0` (or a
// negative or NaN step) used to append levels until the process died.
func TestSlackLevels(t *testing.T) {
	got, err := slackLevels(1.1, 0, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 12 || got[0] != 1.1 || math.Abs(got[11]) > 1e-9 {
		t.Fatalf("default flags give %v, want 12 levels from 1.1 down to 0", got)
	}
	if got, err := slackLevels(1, 1, 0.5); err != nil || len(got) != 1 {
		t.Fatalf("from == to gives %v, %v, want the one level", got, err)
	}
	for _, bad := range [][3]float64{
		{1.1, 0, 0}, {1.1, 0, -0.1}, {1.1, 0, math.NaN()}, {1.1, 0, 1e-9},
		{0, 1.1, 0.1}, {math.NaN(), 0, 0.1}, {1.1, math.NaN(), 0.1}, {math.Inf(1), 0, 0.1}, {1.1, math.Inf(-1), 0.1},
	} {
		if got, err := slackLevels(bad[0], bad[1], bad[2]); err == nil {
			t.Errorf("from %v to %v step %v accepted (%d levels)", bad[0], bad[1], bad[2], len(got))
		}
	}
}
