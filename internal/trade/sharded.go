package trade

import (
	"fmt"
	"math"

	"perfpred/internal/sim"
	"perfpred/internal/workload"
)

// This file is the sharded fleet model: Pools replicas of the
// configured network on calendar-queue engines under a
// sim.Coordinator run by Shards goroutines — one engine per pool when
// the pools never meet, Shards engines when they do. Each pool is an
// ordinary simulator whose random streams are split from the run seed
// by stable pool index (sim.SplitSeed), owns all of its state, and —
// when a Router sends a request elsewhere — forwards it to a sibling
// pool through the coordinator's conservative message exchange.
// Because no pool state is shared and every cross-pool interaction
// carries a mapping-invariant (time, pool, seq) key, the fleet's
// trajectory is identical at any shard count; shards only decide which
// engine a pool's events fire on.

// xreq is one cross-pool request in flight. It is owned by the ORIGIN
// pool: created and recycled there, with its continuations bound once
// at allocation so the steady-state remote path allocates nothing. The
// destination pool only reads its fields (demand, identity) and runs
// the request through an ordinary pooled reqState with xr set.
type xreq struct {
	s       *simulator // origin pool
	dst     *simulator
	client  int32 // the origin's closed-client index
	cls     int   // Config.Load index of the client's class (router key)
	d       workload.Demand
	arrival float64 // origin-pool issue time; rt includes both hops
	// homeShard is the origin's shard index, the Send destination for
	// the response hop.
	homeShard int

	next *xreq // free-list link

	arrive func() // bound once: runs on the destination shard
	ret    func() // bound once: runs back on the origin shard
}

// getXreq takes a cross-pool record from the origin's free list,
// binding continuations only on first allocation.
func (s *simulator) getXreq() *xreq {
	xr := s.xFree
	if xr != nil {
		s.xFree = xr.next
		xr.next = nil
		s.poolReuses++
		return xr
	}
	s.poolAllocs++
	xr = &xreq{s: s, homeShard: s.shard.ID()}
	xr.arrive = xr.doArrive
	xr.ret = xr.doReturn
	return xr
}

// putXreq retires a completed cross-pool record.
func (s *simulator) putXreq(xr *xreq) {
	xr.dst = nil
	xr.next = s.xFree
	s.xFree = xr
}

// issueRemoteTo forwards closed client c's request to pool idx, the
// fleet router's decision. The demand is drawn origin-side (on the
// origin's own streams, keeping every stream pool-local); the
// destination only executes it. The hop delay equals the coordinator
// lookahead, so the send is always legal.
func (s *simulator) issueRemoteTo(c, cls int32, idx int) {
	dst := s.pools[idx]
	d, _ := s.nextRequest(c, cls)
	xr := s.getXreq()
	xr.dst = dst
	xr.client = c
	xr.cls = int(cls)
	xr.d = d
	xr.arrival = s.eng.Now()
	s.sendSeq++
	s.shard.Send(dst.shard.ID(), s.poolID, s.sendSeq, ShardLatency, xr.arrive)
}

// doArrive runs on the destination shard when the request hop lands:
// the destination pool serves it like an open arrival, on a pooled
// reqState carrying the xreq back-reference.
func (xr *xreq) doArrive() { xr.dst.admitOpen(nil, xr.cls, xr.d, xr) }

// doReturn runs back on the origin shard when the response hop lands:
// record the end-to-end response time (two hops plus remote service)
// and put the client back into its think loop.
func (xr *xreq) doReturn() {
	s := xr.s
	rt := s.eng.Now() - xr.arrival
	if s.measuring {
		s.classes[xr.cls].acc.record(rt)
	}
	s.eng.ScheduleArg(s.thinkDelay(xr.cls), s.onThink, xr.client)
	s.putXreq(xr)
}

// ShardedRun is a fleet of pool simulators under one coordinator, and
// the stepped interface to it: build once, advance the coordinator in
// caller-chosen strides, switch measurement on at the warm-up boundary,
// and collect the merged fleet result at the end. Run drives exactly
// this lifecycle; the fleet layer (internal/fleet) steps the run itself
// so its barrier hook can replan in-loop while the caller still owns
// the clock.
type ShardedRun struct {
	coord    *sim.Coordinator
	pools    []*simulator
	duration float64 // Config.Duration, the measured window Collect divides by
	closed   bool
}

// NewSharded builds a sharded fleet run without advancing it: the
// coordinator, the per-pool simulators on their shard engines, and the
// cross-pool links. The configuration must select the sharded model
// (Pools or Shards > 1).
func NewSharded(cfg Config) (*ShardedRun, error) {
	if !cfg.sharded() {
		return nil, fmt.Errorf("trade: NewSharded needs a sharded configuration (Pools or Shards > 1)")
	}
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
	if cfg.BarrierHook != nil {
		coord.SetBarrierHook(cfg.BarrierHook)
	}
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
		r.pools[i] = newSimulator(pcfg, simOptions{
			shard:  coord.Shard(i % nEngines),
			root:   root.Split(uint64(i)),
			poolID: uint64(i),
		})
	}
	for _, p := range r.pools {
		p.pools = r.pools
	}
	return r, nil
}

// Advance runs the fleet to simulated time until (monotone across
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

// Collect merges the fleet's measurements into one Result. The run can
// still be advanced afterwards, but the statistics keep accumulating.
func (r *ShardedRun) Collect() *Result {
	return collect(r.pools, r.duration, r.coord.Fired(), true)
}

// Close releases the coordinator's worker pool. The run must not be
// advanced afterwards. Safe to call twice.
func (r *ShardedRun) Close() {
	if !r.closed {
		r.closed = true
		r.coord.Close()
	}
}
