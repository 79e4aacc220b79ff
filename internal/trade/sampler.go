package trade

import (
	"slices"

	"perfpred/internal/sim"
	"perfpred/internal/workload"
)

// typeSampler resolves a service class's request-type mix once per run:
// the mix's types in deterministic order, their demands pre-looked-up
// from the demand table, and — for multi-type mixes — a Walker/Vose
// alias table so each pick costs one uniform draw and no sort; the
// sorting and table building happen exactly once per Config.
//
// Draw discipline: a single-type mix consumes no draws (the invariant
// every golden output relies on); a multi-type mix consumes exactly one
// uniform draw per pick.
type typeSampler struct {
	types   []workload.RequestType
	demands []workload.Demand
	alias   *sim.AliasTable // nil for single-type mixes
}

// newTypeSampler builds a sampler for one class mix against a demand
// table. The caller has validated that every type in the mix has a
// demand entry.
func newTypeSampler(mix workload.Mix, demands map[workload.RequestType]workload.Demand) *typeSampler {
	t := &typeSampler{
		types:   orderedTypes(mix),
		demands: make([]workload.Demand, 0, len(mix)),
	}
	weights := make([]float64, 0, len(mix))
	for _, rt := range t.types {
		t.demands = append(t.demands, demands[rt])
		weights = append(weights, mix[rt])
	}
	if len(t.types) > 1 {
		t.alias = sim.NewAliasTable(weights)
	}
	return t
}

// pick returns the index of the next request type, consuming one
// uniform draw from choose for multi-type mixes and none otherwise.
func (t *typeSampler) pick(choose *sim.Stream) int {
	if t.alias == nil {
		return 0
	}
	return t.alias.Pick(choose)
}

// sample returns the resolved demand of the next request type.
func (t *typeSampler) sample(choose *sim.Stream) workload.Demand {
	return t.demands[t.pick(choose)]
}

// orderedTypes returns map keys in a fixed order so runs are
// deterministic for a given seed.
func orderedTypes(m workload.Mix) []workload.RequestType {
	out := make([]workload.RequestType, 0, len(m))
	for rt := range m {
		out = append(out, rt)
	}
	slices.Sort(out)
	return out
}
