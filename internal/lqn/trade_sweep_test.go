package lqn

import (
	"math"
	"slices"
	"testing"

	"perfpred/internal/workload"
)

// TradeSweep must be the idiom it replaced, to the bit: NewTradeModel,
// a retained &Solver{WarmStart: true} and an in-place population loop.
// The three sequences are the shapes its callers sweep: the typical
// workload, a fixed 25 % mix, and relationship 3's fixed total with the
// mix swept 0 → 25 %.
func TestTradeSweepMatchesHandBuilt(t *testing.T) {
	var typical, mixed, rel3 []workload.Workload
	for _, n := range []int{2600, 260, 300, 700, 1300, 1500, 2200, 1} {
		typical = append(typical, workload.TypicalWorkload(n))
		mixed = append(mixed, workload.MixedWorkload(n, 0.25))
	}
	for _, pct := range []float64{0, 5, 10, 15, 20, 25} {
		rel3 = append(rel3, workload.MixedWorkload(2604, pct/100))
	}
	opt := Options{Convergence: 1e-6}
	for name, loads := range map[string][]workload.Workload{"typical": typical, "mixed": mixed, "rel3": rel3} {
		sweep, err := NewTradeSweep(workload.AppServF(), workload.CaseStudyDB(), workload.CaseStudyDemands(), loads[0], opt)
		if err != nil {
			t.Fatal(err)
		}
		model, err := NewTradeModel(workload.AppServF(), workload.CaseStudyDB(), workload.CaseStudyDemands(), loads[0])
		if err != nil {
			t.Fatal(err)
		}
		solver := &Solver{WarmStart: true}
		for step, load := range loads {
			for i, p := range load {
				model.Classes[i].Population = p.Clients
			}
			want, err := solver.Solve(model, opt)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sweep.Solve(load)
			if err != nil {
				t.Fatal(err)
			}
			if got.Iterations != want.Iterations {
				t.Errorf("%s step %d: %d iterations, hand-built %d", name, step, got.Iterations, want.Iterations)
			}
			for class, w := range want.Classes {
				g := got.Classes[class]
				if math.Float64bits(g.ResponseTime) != math.Float64bits(w.ResponseTime) ||
					math.Float64bits(g.Throughput) != math.Float64bits(w.Throughput) {
					t.Errorf("%s step %d class %s: %+v, hand-built %+v", name, step, class, g, w)
				}
			}
		}
	}
}

// A capacity answer must not depend on what the sweep solved before it:
// after an arbitrary prior sweep MaxClients probes the same populations
// and returns the same capacity and count as on a fresh sweep, and the
// capacity is the boundary of the goal.
func TestTradeSweepMaxClientsIgnoresHistory(t *testing.T) {
	const goal, buy = 0.25, 0.10
	search := func(prior []int) (n, evals int, probes []int) {
		sweep, err := NewTradeSweep(workload.AppServF(), workload.CaseStudyDB(), workload.CaseStudyDemands(), workload.MixLoad(1, buy), Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range prior {
			if _, err := sweep.Solve(workload.MixLoad(p, buy)); err != nil {
				t.Fatal(err)
			}
		}
		n, evals, err = sweep.MaxClients(goal, 1<<20, func(n int) workload.Workload {
			probes = append(probes, n)
			return workload.MixLoad(n, buy)
		})
		if err != nil {
			t.Fatal(err)
		}
		// The search leaves the sweep usable: its retained solver still
		// answers, and at the boundary the goal flips.
		for _, c := range []struct {
			n      int
			within bool
		}{{n, true}, {n + 1, false}} {
			res, err := sweep.Solve(workload.MixLoad(c.n, buy))
			if err != nil {
				t.Fatal(err)
			}
			if within := res.MeanResponseTime() <= goal; within != c.within {
				t.Errorf("%d clients: within goal = %v, want %v (capacity %d)", c.n, within, c.within, n)
			}
		}
		return n, evals, probes
	}
	n0, evals0, probes0 := search(nil)
	n1, evals1, probes1 := search([]int{3000, 17, 1200, 1201, 5})
	if n0 != n1 || evals0 != evals1 || !slices.Equal(probes0, probes1) {
		t.Fatalf("fresh sweep: %d clients in %d solves, probes %v\nafter a prior sweep: %d clients in %d solves, probes %v",
			n0, evals0, probes0, n1, evals1, probes1)
	}
	if n0 < 100 || evals0 != len(probes0) {
		t.Fatalf("capacity %d from %d solves over %d probes", n0, evals0, len(probes0))
	}
}

func TestTradeSweepRejectsMisshapenLoad(t *testing.T) {
	sweep, err := NewTradeSweep(workload.AppServF(), workload.CaseStudyDB(), workload.CaseStudyDemands(), workload.TypicalWorkload(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sweep.Solve(workload.MixedWorkload(100, 0.25)); err == nil {
		t.Fatal("a two-class load on a one-class sweep was solved")
	}
}
