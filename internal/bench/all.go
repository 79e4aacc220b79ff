package bench

import "fmt"

// experiment is one named result table. The paper's experiments come
// first, in paper order; the studies after them are this repository's
// own comparisons, run only when named.
type experiment struct {
	name  string
	paper bool
	run   func(*Suite) (*Table, error)
}

var experiments = []experiment{
	{"table1", true, (*Suite).table1},
	{"table2", true, (*Suite).table2},
	{"gradient", true, (*Suite).throughputGradient},
	{"data-quantity", true, (*Suite).dataQuantity},
	{"figure2", true, (*Suite).figure2},
	{"figure3", true, (*Suite).figure3},
	{"figure4", true, (*Suite).figure4},
	{"percentiles", true, (*Suite).percentiles},
	{"percentile-direct", true, (*Suite).percentileDirect},
	{"cache", true, (*Suite).cacheStudy},
	{"search", true, (*Suite).lqnMaxClientsCost},
	{"stabilisation", true, (*Suite).stabilisation},
	{"cluster", true, (*Suite).clusterStudy},
	{"open", true, (*Suite).openWorkload},
	{"bottleneck", true, (*Suite).bottleneck},
	{"provider", true, (*Suite).provider},
	{"figure5-6", true, (*Suite).figure5and6},
	{"figure7", true, (*Suite).figure7},
	{"figure8", true, (*Suite).figure8},
	{"uniform", true, (*Suite).uniformInaccuracy},
	{"delay", true, (*Suite).predictionDelay},
	{"matrix", true, (*Suite).evaluationMatrix},
	{"ablation-transition", true, (*Suite).ablationTransition},
	{"ablation-mva", true, (*Suite).ablationMVA},
	{"ablation-convergence", true, (*Suite).ablationConvergence},
	{"ablation-lastserver", true, (*Suite).ablationLastServer},
	{"ablation-layers", true, (*Suite).ablationTaskLayering},

	{"families", false, (*Suite).families},
	{"fleet-ab", false, (*Suite).fleetAB},
}

// claims reads the paper tables through Run, so it joins the list later.
func init() {
	experiments = append(experiments, experiment{"claims", false, (*Suite).reproductionClaims})
}

// Run executes one named experiment or study.
func (s *Suite) Run(name string) (*Table, error) {
	for _, e := range experiments {
		if e.name == name {
			return e.run(s)
		}
	}
	return nil, fmt.Errorf("bench: unknown experiment %q", name)
}

func names(paper bool) []string {
	var out []string
	for _, e := range experiments {
		if e.paper == paper {
			out = append(out, e.name)
		}
	}
	return out
}

// Experiments returns the paper's experiment names in paper order.
func Experiments() []string { return names(true) }

// Studies returns the names of the studies beyond the paper. The fourth
// study, ScenarioWindows, takes a workload spec and so has no name here.
func Studies() []string { return names(false) }
