package rm

import (
	"testing"

	"perfpred/internal/sla"
)

// Equivalence regression for the realCapacity rewrite: the shared
// search probing truth.Predict must report the same integer
// capacity the old implementation got by flooring truth.MaxClients,
// for the analytic case-study models at every goal the evaluation
// harness sweeps.
func TestCapacitySearchMatchesMaxClients(t *testing.T) {
	truth := truthModels()
	for arch := range truth {
		for _, goal := range []float64{0.05, 0.1, 0.15, 0.25, 0.5, 1, 2} {
			got, err := sla.Goal{MaxRT: goal}.MaxClients(maxOracleClients, func(n float64) (float64, error) {
				return truth.Predict(arch, n)
			})
			if err != nil {
				t.Fatal(err)
			}
			n, err := truth.MaxClients(arch, goal)
			if err != nil {
				t.Fatal(err)
			}
			// The analytic inverse solves Predict(N) == goal in real
			// arithmetic; at populations where N lands within an ulp of
			// an integer the floor can disagree with the integer search
			// by one. The defining property below is the exact check.
			if want := int(n); got < want-1 || got > want+1 {
				t.Errorf("%s goal %v: search %d, floor(MaxClients) = %d", arch, goal, got, want)
			}
			// The defining property, independent of the analytic inverse:
			// goal holds at the reported capacity and breaks one past it.
			if got > 0 {
				if rt, _ := truth.Predict(arch, float64(got)); rt > goal {
					t.Errorf("%s goal %v: capacity %d already misses the goal (%v)", arch, goal, got, rt)
				}
			}
			if rt, _ := truth.Predict(arch, float64(got+1)); rt <= goal && got < maxOracleClients {
				t.Errorf("%s goal %v: capacity %d not maximal (%d still meets it at %v)", arch, goal, got, got+1, rt)
			}
		}
	}
}

// Evaluate's realCapacity memo must not change results: two passes with
// fresh and shared memos agree.
func TestRealCapacityMemoised(t *testing.T) {
	truth := truthModels()
	memo := make(map[capKey]int)
	first, err := realCapacity(truth, "AppServF", 0.25, memo)
	if err != nil {
		t.Fatal(err)
	}
	if len(memo) != 1 {
		t.Fatalf("memo holds %d entries after one probe", len(memo))
	}
	if again, _ := realCapacity(truth, "AppServF", 0.25, memo); again != first {
		t.Errorf("memoised capacity %d != first %d", again, first)
	}
	if fresh, _ := realCapacity(truth, "AppServF", 0.25, make(map[capKey]int)); fresh != first {
		t.Errorf("fresh-memo capacity %d != first %d", fresh, first)
	}
}
