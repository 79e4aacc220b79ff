package bench

import (
	"fmt"
	"io"
)

// experiment is one named result table. The paper's experiments come
// first, in paper order; the studies after them are this repository's
// own comparisons, run only when named.
type experiment struct {
	name  string
	paper bool
	run   func(*Suite) (*Table, error)
}

var experiments = []experiment{
	{"table1", true, (*Suite).Table1},
	{"table2", true, (*Suite).Table2},
	{"gradient", true, (*Suite).ThroughputGradient},
	{"data-quantity", true, (*Suite).DataQuantity},
	{"figure2", true, (*Suite).Figure2},
	{"figure3", true, (*Suite).Figure3},
	{"figure4", true, (*Suite).Figure4},
	{"percentiles", true, (*Suite).Percentiles},
	{"percentile-direct", true, (*Suite).PercentileDirect},
	{"cache", true, (*Suite).CacheStudy},
	{"search", true, (*Suite).LQNMaxClientsCost},
	{"stabilisation", true, (*Suite).Stabilisation},
	{"cluster", true, (*Suite).ClusterStudy},
	{"open", true, (*Suite).OpenWorkload},
	{"bottleneck", true, (*Suite).Bottleneck},
	{"provider", true, (*Suite).Provider},
	{"figure5-6", true, (*Suite).Figure5and6},
	{"figure7", true, (*Suite).Figure7},
	{"figure8", true, (*Suite).Figure8},
	{"uniform", true, (*Suite).UniformInaccuracy},
	{"delay", true, (*Suite).PredictionDelay},
	{"matrix", true, (*Suite).EvaluationMatrix},
	{"ablation-transition", true, (*Suite).AblationTransition},
	{"ablation-mva", true, (*Suite).AblationMVA},
	{"ablation-convergence", true, (*Suite).AblationConvergence},
	{"ablation-lastserver", true, (*Suite).AblationLastServer},
	{"ablation-layers", true, (*Suite).AblationTaskLayering},

	{"families", false, (*Suite).Families},
	{"fleet-ab", false, (*Suite).FleetAB},
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

// Studies returns the names of the studies beyond the paper. The third
// study, ScenarioWindows, takes a workload spec and so has no name here.
func Studies() []string { return names(false) }

// RunAll executes every paper experiment in paper order, printing each
// table to w as it completes.
func (s *Suite) RunAll(w io.Writer) error {
	for _, name := range Experiments() {
		t, err := s.Run(name)
		if err != nil {
			return fmt.Errorf("bench: experiment %s: %w", name, err)
		}
		t.Fprint(w)
	}
	return nil
}
