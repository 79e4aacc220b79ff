package rm

import "strconv"

// PoolState is one pool's contribution to a fleet snapshot: its stable
// index and planning identity. Algorithm 1 plans from the predictor's
// steady-state curves, so no live load observation enters it.
type PoolState struct {
	// Pool is the stable pool index; the planned server name is
	// PoolServerName(Pool).
	Pool int
	// Arch is the architecture key the Predictor understands.
	Arch string
	// Power is the pool's processing power (max throughput under the
	// typical workload), the % server usage denominator.
	Power float64
}

// FleetSnapshot is the replan entry point's input: everything Algorithm
// 1 needs to re-place the fleet's workload, captured at one window
// barrier so every field is a deterministic function of the simulated
// trajectory (identical at any shard count).
type FleetSnapshot struct {
	// Classes is the workload to place: per service class, the SLA goal
	// and the client count the replan should plan for (the fleet layer
	// estimates live totals via Little's law).
	Classes []Class
	// Pools lists every pool in stable index order.
	Pools []PoolState
}

// PoolServerName is the server name pool i carries inside plans
// ("p<i>") — the key fleet layers use to map allocations back to pool
// indexes.
func PoolServerName(i int) string { return "p" + strconv.Itoa(i) }

// Replanner turns fleet snapshots into Algorithm 1 plans. It retains
// its server scratch between calls, so a periodic in-loop replan costs
// one Allocate over the snapshot — and when Pred is backed by retained
// warm-started solvers (LQNPredictor), adjacent replans reuse both the
// solver iteration history and the capacity memo.
//
// A Replanner is single-goroutine, like the warm solvers behind it;
// the fleet layer calls it from the coordinator's barrier hook.
type Replanner struct {
	// Pred is the planning predictor Algorithm 1 consults.
	Pred Predictor

	servers []Server // retained scratch rebuilt only on pool-count change
}

// Replan runs Algorithm 1 against the snapshot, at slack 1 and default
// options, and returns the plan.
func (rp *Replanner) Replan(snap *FleetSnapshot) (*Plan, error) {
	if len(rp.servers) != len(snap.Pools) {
		rp.servers = make([]Server, len(snap.Pools))
		for i := range rp.servers {
			rp.servers[i].Name = PoolServerName(i)
		}
	}
	for i, ps := range snap.Pools {
		rp.servers[i].Arch = ps.Arch
		rp.servers[i].Power = ps.Power
	}
	return Allocate(snap.Classes, rp.servers, rp.Pred, 1, Options{})
}
