package sla

import (
	"errors"
	"reflect"
	"testing"
)

// step is the monotone predicate "n ≤ threshold", recording every probe.
func step(threshold int, probes *[]int) func(int) (bool, error) {
	return func(n int) (bool, error) {
		*probes = append(*probes, n)
		return n <= threshold, nil
	}
}

// legacyProbes replays the doubling + bisection loop that
// lqn.MaxClientsSearch and the serve batcher each carried before the
// search was shared (rm.CapacitySearch's copy differed only in clamping
// the doubling to the limit): the reference the shared search's probe
// sequence is held to, because the sequence is what the `evaluations`
// field of /v1/capacity replies and the §8.2 "LQN solver evals" column
// count.
func legacyProbes(threshold, limit int) (answer int, probes []int) {
	meets := func(n int) bool {
		probes = append(probes, n)
		return n <= threshold
	}
	if !meets(1) {
		return 0, probes
	}
	lo, hi := 1, 2
	for hi <= limit {
		if !meets(hi) {
			break
		}
		lo = hi
		hi *= 2
	}
	if hi > limit {
		hi = limit + 1
	}
	for lo+1 < hi {
		mid := lo + (hi-lo)/2
		if meets(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, probes
}

func TestMaxClientsStepPredicates(t *testing.T) {
	for _, tc := range []struct {
		name             string
		threshold, limit int
	}{
		{"zero", 0, 1000},
		{"one", 1, 1000},
		{"power of two", 64, 1000},
		{"below a power of two", 63, 1000},
		{"non-power-of-two", 337, 1000},
		{"at the limit", 1000, 1000},
		{"above the limit", 5000, 1000},
		{"above a power-of-two limit", 1 << 21, 1 << 20},
		{"overshoot lands past the limit", 50, 60},
		{"limit one", 9, 1},
		{"limit zero", 9, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var probes []int
			got, err := MaxClients(tc.limit, step(tc.threshold, &probes))
			if err != nil {
				t.Fatal(err)
			}
			want := tc.threshold
			if want > tc.limit {
				want = tc.limit
			}
			if got != want {
				t.Fatalf("MaxClients = %d, want %d (probes %v)", got, want, probes)
			}
			// A reported capacity is a verified one: it was itself probed
			// (and met), never assumed — the PR 11 bug class.
			if got > 0 {
				seen := false
				for _, p := range probes {
					seen = seen || p == got
				}
				if !seen {
					t.Fatalf("answer %d was never probed (probes %v)", got, probes)
				}
			}
			for _, p := range probes {
				if p < 1 || p > tc.limit {
					t.Fatalf("probe %d outside [1, %d]", p, tc.limit)
				}
			}
			if len(probes) > 45 {
				t.Fatalf("search degenerated to a scan: %d probes", len(probes))
			}
			// Away from the limit — the doubling broke at a power of two
			// within it, or the limit is itself on the 2^k grid — the
			// sequence is exactly the deleted loops'.
			firstFail := 1
			for firstFail <= tc.threshold {
				firstFail *= 2
			}
			if firstFail <= tc.limit || (tc.limit > 0 && tc.limit&(tc.limit-1) == 0) {
				legacy, legacySeq := legacyProbes(tc.threshold, tc.limit)
				if legacy != got || !reflect.DeepEqual(probes, legacySeq) {
					t.Fatalf("probe sequence %v (answer %d) differs from the legacy loops' %v (answer %d)",
						probes, got, legacySeq, legacy)
				}
			}
		})
	}
}

// Exhaustive agreement with the defining property on every (threshold,
// limit) pair of a small grid, odd limits included.
func TestMaxClientsMatchesBruteForce(t *testing.T) {
	for limit := 0; limit <= 70; limit++ {
		for threshold := 0; threshold <= 75; threshold++ {
			var probes []int
			got, err := MaxClients(limit, step(threshold, &probes))
			if err != nil {
				t.Fatal(err)
			}
			want := threshold
			if want > limit {
				want = limit
			}
			if got != want {
				t.Fatalf("threshold %d limit %d: got %d, want %d", threshold, limit, got, want)
			}
		}
	}
}

func TestMaxClientsSurfacesProbeError(t *testing.T) {
	fail := errors.New("probe failed")
	for _, failAt := range []int{1, 4, 6} {
		_, err := MaxClients(100, func(n int) (bool, error) {
			if n == failAt {
				return true, fail
			}
			return n <= 6, nil
		})
		if !errors.Is(err, fail) {
			t.Errorf("error at probe %d not surfaced: %v", failAt, err)
		}
	}
}

// Goal.MaxClients is the response-time-curve form every rm.Predictor
// family without a closed-form inverse uses: it validates the goal and
// finds the last population whose response time still meets it.
func TestGoalMaxClients(t *testing.T) {
	curve := func(n float64) (float64, error) {
		return 0.05 + 0.001*n + 0.0004*n*n, nil
	}
	for _, goal := range []float64{0.049, 0.0515, 0.08, 0.2, 1, 5, 100} {
		for _, limit := range []int{1, 7, 64, 300} {
			got, err := Goal{MaxRT: goal}.MaxClients(limit, curve)
			if err != nil {
				t.Fatal(err)
			}
			want := 0
			for n := 1; n <= limit; n++ {
				if rt, _ := curve(float64(n)); rt > goal {
					break
				}
				want = n
			}
			if got != want {
				t.Errorf("goal %v limit %d: search %d, brute force %d", goal, limit, got, want)
			}
		}
	}
	if _, err := (Goal{}).MaxClients(100, curve); err == nil {
		t.Error("non-positive goal accepted")
	}
	fail := errors.New("probe failed")
	if _, err := (Goal{MaxRT: 1}).MaxClients(100, func(float64) (float64, error) { return 0, fail }); !errors.Is(err, fail) {
		t.Errorf("probe error not surfaced: %v", err)
	}
}
