package trade

import (
	"math"

	"perfpred/internal/sim"
)

// This file is the one simulator every run is: Pools replicas of the
// configured network on calendar-queue engines under a
// sim.Coordinator run by Shards goroutines — one engine per pool when
// the pools never meet, Shards engines when they do. Each pool is an
// ordinary simulator that owns all of its state, draws from streams
// split from the run seed by stable pool index (sim.SplitSeed) when
// there are several, and — when a Router sends a request elsewhere —
// forwards it to a sibling pool through the coordinator's conservative
// message exchange. Because no pool state is shared and every
// cross-pool interaction carries a mapping-invariant (time, pool, seq)
// key, the run's trajectory is identical at any shard count; shards
// only decide which engine a pool's events fire on.

// ShardedRun is a run's pool simulators under one coordinator, and
// the stepped interface to it: build once, advance the coordinator in
// caller-chosen strides, switch measurement on at the warm-up boundary,
// and collect the merged result at the end. Run drives exactly this
// lifecycle; the fleet layer (internal/fleet) steps the run itself
// so its barrier hook can replan in-loop while the caller still owns
// the clock.
type ShardedRun struct {
	coord    *sim.Coordinator
	pools    []*simulator
	duration float64 // Config.Duration, the measured window Collect divides by
	closed   bool
}

// NewSharded builds a run without advancing it: the coordinator, the
// per-pool simulators on their shard engines, and the cross-pool
// links.
func NewSharded(cfg Config) (*ShardedRun, error) { return newSharded(cfg, simOptions{}) }

// newSharded is NewSharded under the given constructor variant.
func newSharded(cfg Config, opt simOptions) (*ShardedRun, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	nPools := cfg.effectivePools()
	nShards := cfg.effectiveShards()
	// With no cross-pool traffic and no barrier consumer the pools never
	// interact: an infinite lookahead collapses each Advance into one
	// barrier-free window, and every pool gets an engine of its own, so
	// the Shards goroutines run whole pools one after another, each
	// pool's working set in cache for its whole window. A router that
	// is not Local can send to any sibling at any time, and a barrier
	// hook needs barriers to fire on, so either forces the conservative
	// windowed mode, where a window holds too few events per pool to
	// pay for a per-pool engine run: there each of Shards engines
	// carries pools i mod Shards. A Local router that sends anyway
	// meets Send's lookahead panic.
	lookahead, nEngines := math.Inf(1), nPools
	if cfg.Router != nil && !cfg.Router.Local() || cfg.BarrierHook != nil {
		lookahead, nEngines = ShardLatency, nShards
	}
	coord := sim.NewCoordinatorOn(nEngines, nShards, lookahead)
	if opt.newEngine != nil {
		for i := 0; i < nEngines; i++ {
			coord.Shard(i).Eng = opt.newEngine()
		}
	}
	if cfg.BarrierHook != nil {
		coord.SetBarrierHook(cfg.BarrierHook)
	}
	tradeRuns.Inc()
	root := sim.NewStream(cfg.Seed)
	r := &ShardedRun{coord: coord, pools: make([]*simulator, nPools), duration: cfg.Duration}
	for i := range r.pools {
		pcfg := cfg
		if len(cfg.PoolArchs) > 0 {
			// Heterogeneous fleet: the pool's single-server tier is its
			// assigned architecture.
			pcfg.Server = cfg.PoolArchs[i%len(cfg.PoolArchs)]
			pcfg.Servers = nil
		}
		proot := root // one pool draws from the seed's own streams
		if nPools > 1 {
			proot = root.Split(uint64(i))
		}
		r.pools[i] = newSimulator(pcfg, simOptions{
			intercept: opt.intercept,
			shard:     coord.Shard(i % nEngines),
			root:      proot,
			poolID:    uint64(i),
			pools:     nPools,
		})
	}
	for _, p := range r.pools {
		p.pools = r.pools
	}
	return r, nil
}

// Run simulates the configured measurement and returns its result:
// warm up, reset statistics, measure, collect.
func Run(cfg Config) (*Result, error) { return run(cfg, simOptions{}) }

// run is Run under the given constructor variant.
func run(cfg Config, opt simOptions) (*Result, error) {
	r, err := newSharded(cfg, opt)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	r.Advance(cfg.WarmUp)
	r.BeginMeasurement()
	r.Advance(cfg.WarmUp + cfg.Duration)
	return r.Collect(), nil
}

// Advance runs the pools to simulated time until (monotone across
// calls) and returns the events fired by this stride.
func (r *ShardedRun) Advance(until float64) uint64 { return r.coord.Run(until) }

// Windows returns how many windows the coordinator has fanned out to
// its shards (sim.Coordinator.Windows): a property of the event
// population, the same at every shard count.
func (r *ShardedRun) Windows() uint64 { return r.coord.Windows() }

// Parks returns how often the coordinator's worker pool has put a
// goroutine to sleep at a window barrier (sim.Coordinator.Parks): a
// host-dependent report, never part of a result's fingerprint.
func (r *ShardedRun) Parks() uint64 { return r.coord.Parks() }

// BeginMeasurement discards everything observed so far and starts the
// measured window. Call it exactly once, at the configured WarmUp
// boundary: Collect divides by Config.Duration, so the measured window
// must span exactly that long.
func (r *ShardedRun) BeginMeasurement() {
	for _, p := range r.pools {
		p.beginMeasurement()
	}
}

// Collect merges the pools' measurements into one Result. The run can
// still be advanced afterwards, but the statistics keep accumulating.
func (r *ShardedRun) Collect() *Result {
	return collect(r.pools, r.duration, r.coord.Fired())
}

// Close releases the coordinator's worker pool. The run must not be
// advanced afterwards. Safe to call twice.
func (r *ShardedRun) Close() {
	if !r.closed {
		r.closed = true
		r.coord.Close()
	}
}
