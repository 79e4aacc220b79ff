package fleet

import (
	"math"

	"perfpred/internal/trade"
)

// rtAlpha is the EWMA weight of the latest barrier window's mean
// response time in the per-pool smoothed RT.
const rtAlpha = 0.3

// view is the routing state the scorers read, written only at window
// barriers (Router.Sync and the replanner's setAllowed, on the
// coordinator goroutine while all shards are quiescent) and read during
// windows, so scorers on every shard see the identical snapshot — the
// property that keeps routing decisions invariant under the pool→shard
// mapping. The one in-window layer is each origin's own row of
// decisions since the last barrier (originState.row), so its scorers
// don't herd onto the pool the stale snapshot calls idle. A pool's own
// event order is mapping-invariant, so origin-local state is legal;
// reading another origin's live row would not be.
type view struct {
	// InFlight is the barrier snapshot of requests in service or queued
	// per pool (started − completed).
	InFlight []int
	// RT is the EWMA of each pool's per-window mean service-side
	// response time, seconds; 0 until the pool's first completion.
	RT []float64
	// Capacity is each pool's servlet-thread multiplicity (MPL) — the
	// static weight that makes load comparisons across heterogeneous
	// pools relative, not absolute. Positive.
	Capacity []int
	// Allowed is the nclasses×npools class-affinity matrix (row-major
	// by class): 1 when the resource manager's current plan places the
	// class on the pool. All ones until the first plan lands.
	Allowed []uint8
}

// relLoad is the scorers' shared load signal: pool p's in-flight plus
// n, the origin's requests to it this window, relative to its capacity.
func (v *view) relLoad(p int, n int32) float64 {
	return float64(v.InFlight[p]+int(n)) / float64(v.Capacity[p])
}

// classCount is the per-(pool, class) counter block: 32 bytes, padded
// to cache-line multiples per pool row by the Router's stride.
type classCount struct {
	started, completed uint64
	rtSum              float64
	rtCount            uint64
}

// originState is per-origin routing state, padded to a cache line so
// origins on different shards never write-share. row counts the
// origin's decisions this window per destination: an origin makes a
// fraction of a decision per window, so it stays a few entries long.
// visited counts the tree nodes the origin's picks examined.
type originState struct {
	routes  uint64
	remotes uint64
	visited uint64
	row     []assignment
	_       [2]uint64 // pad to 64 bytes
}

// assignment counts an origin's requests to pool dst this window.
type assignment struct{ dst, n int32 }

// assigned returns the index of pool p in the origin's row, or -1.
func (o *originState) assigned(p int32) int {
	for i := range o.row {
		if o.row[i].dst == p {
			return i
		}
	}
	return -1
}

// Router is the fleet's trade.PoolRouter: incrementally maintained
// per-pool state behind a Scorer. Route/Started/Completed are counter
// updates plus, for every scorer but Static, a branch-and-bound
// descent of a tournament tree rebuilt at each barrier (tree.go) —
// a handful of nodes per decision where a scan reads every pool — with
// zero heap allocation; cross-pool state moves only at window barriers
// via Sync.
type Router struct {
	policy   policy
	npools   int
	nclasses int
	stride   int // classCounts per pool row, padded to a 64-byte multiple

	view view

	cc      []classCount // npools×stride, row-major by pool
	origins []originState

	// Per-pool RT-window baselines for the barrier EWMA.
	prevRTSum   []float64
	prevRTCount []uint64

	// The tournament trees and the barrier values their keys share:
	// all spans every pool (queue, leastrt, affinity's fallback);
	// byClass has one tree per class (affinity, weighted). Static has
	// neither.
	load    []float64 // barrier relative load per pool
	maxRT   float64   // barrier max of view.RT (weighted)
	all     tree
	byClass []tree
}

var _ trade.PoolRouter = (*Router)(nil)

// NewRouter builds a router over len(capacities) pools with the given
// per-pool thread capacities (MPLs, positive). Run builds one
// internally; the constructor is exported so benchmarks and callers
// wiring their own trade.Config can drive the hot path directly —
// install the router as trade.Config.Router and call Sync from the
// BarrierHook.
func NewRouter(scorer Scorer, capacities []int, nclasses int) *Router {
	npools := len(capacities)
	// Round the per-pool classCount row up to a whole number of 64-byte
	// lines (2 entries) so pools on different shards never write-share.
	stride := (nclasses + 1) &^ 1
	r := &Router{
		policy:   scorer.policy(),
		npools:   npools,
		nclasses: nclasses,
		stride:   stride,
		cc:       make([]classCount, npools*stride),
		origins:  make([]originState, npools),
		view: view{
			InFlight: make([]int, npools),
			RT:       make([]float64, npools),
			Capacity: capacities,
			Allowed:  make([]uint8, nclasses*npools),
		},
		prevRTSum:   make([]float64, npools),
		prevRTCount: make([]uint64, npools),
	}
	for i := range r.view.Allowed {
		r.view.Allowed[i] = 1 // everything allowed until a plan lands
	}
	switch r.policy {
	case policyQueue:
		r.all = newTree(keyLoad, 0, npools)
	case policyLeastRT:
		r.all = newTree(keyLeastRT, 0, npools)
	case policyAffinity:
		r.all = newTree(keyLoad, 0, npools)
		r.byClass = make([]tree, nclasses)
		for c := range r.byClass {
			r.byClass[c] = newTree(keyAffinity, c, npools)
		}
	case policyWeighted:
		r.byClass = make([]tree, nclasses)
		for c := range r.byClass {
			r.byClass[c] = newTree(keyWeighted, c, npools)
		}
	}
	if r.policy != policyStatic {
		r.load = make([]float64, npools)
		r.rebuild()
	}
	return r
}

// Route picks the serving pool for one request (trade.PoolRouter).
func (r *Router) Route(origin, class int) int {
	o := &r.origins[origin]
	o.routes++
	if r.policy == policyStatic {
		return origin
	}
	dst, visited := r.pick(origin, class)
	o.visited += uint64(visited)
	if i := o.assigned(int32(dst)); i >= 0 {
		o.row[i].n++
	} else {
		o.row = append(o.row, assignment{int32(dst), 1})
	}
	if dst != origin {
		o.remotes++
	}
	return dst
}

// pick is the scorer's choice for one decision and the tree nodes it
// examined.
func (r *Router) pick(origin, class int) (int, int) {
	switch r.policy {
	case policyQueue, policyLeastRT:
		return r.search(&r.all, origin)
	}
	t := &r.byClass[class]
	if r.policy == policyAffinity && math.IsInf(t.key[t.win[1]], 1) {
		// The plan allows the class nowhere: plan-oblivious fallback.
		dst, visited := r.search(&r.all, origin)
		return dst, visited + 1
	}
	return r.search(t, origin)
}

// Local reports that the scorer is Static, which serves every request
// on its origin pool (trade.PoolRouter).
func (r *Router) Local() bool { return r.policy == policyStatic }

// Started records a service-side admission (trade.PoolRouter).
func (r *Router) Started(pool, class int) {
	r.cc[pool*r.stride+class].started++
}

// Completed records a service-side completion (trade.PoolRouter).
func (r *Router) Completed(pool, class int, rt float64) {
	c := &r.cc[pool*r.stride+class]
	c.completed++
	c.rtSum += rt
	c.rtCount++
}

// Sync publishes the barrier snapshot: per-pool in-flight counts and
// the RT EWMA from this window's completions, then truncates every
// origin's in-window row and rebuilds the trees. Call it only while all
// shards are quiescent — Run invokes it from the window barrier hook on
// the coordinator goroutine.
func (r *Router) Sync() {
	for p := 0; p < r.npools; p++ {
		base := p * r.stride
		var started, completed, rtCount uint64
		var rtSum float64
		for c := 0; c < r.nclasses; c++ {
			cc := &r.cc[base+c]
			started += cc.started
			completed += cc.completed
			rtSum += cc.rtSum
			rtCount += cc.rtCount
		}
		r.view.InFlight[p] = int(started - completed)
		if dc := rtCount - r.prevRTCount[p]; dc > 0 {
			mean := (rtSum - r.prevRTSum[p]) / float64(dc)
			if r.view.RT[p] == 0 {
				r.view.RT[p] = mean
			} else {
				r.view.RT[p] += rtAlpha * (mean - r.view.RT[p])
			}
			r.prevRTSum[p] = rtSum
			r.prevRTCount[p] = rtCount
		}
	}
	for oi := range r.origins {
		r.origins[oi].row = r.origins[oi].row[:0]
	}
	if r.policy != policyStatic {
		r.rebuild()
	}
}

// rebuild takes the barrier loads and the fleet's max RT from the
// snapshot and rebuilds every tree from them.
func (r *Router) rebuild() {
	r.maxRT = 0
	for p := range r.load {
		r.load[p] = float64(r.view.InFlight[p]) / float64(r.view.Capacity[p])
		if r.view.RT[p] > r.maxRT {
			r.maxRT = r.view.RT[p]
		}
	}
	if r.all.win != nil {
		r.build(&r.all)
	}
	for c := range r.byClass {
		r.build(&r.byClass[c])
	}
}

// setAllowed writes one cell of the class-affinity matrix and re-keys
// the pool in the class's tree, so a plan change applied at a barrier
// steers the very next window. Coordinator goroutine only.
func (r *Router) setAllowed(class, pool int, allow uint8) {
	r.view.Allowed[class*r.npools+pool] = allow
	if r.byClass != nil {
		r.rescore(&r.byClass[class], pool)
	}
}

// PoolTotals returns pool p's lifetime started/completed counts and
// the live in-flight difference — the conservation identity
// started − completed == in-flight that the property tests assert.
// Call only while the fleet is quiescent (between Advance calls or at
// a barrier).
func (r *Router) PoolTotals(p int) (started, completed uint64, inflight int) {
	base := p * r.stride
	for c := 0; c < r.nclasses; c++ {
		cc := &r.cc[base+c]
		started += cc.started
		completed += cc.completed
	}
	return started, completed, int(started - completed)
}

// classTotals sums class c's completions across all pools — the
// replanner's Little's-law input. Pool-index order keeps the
// floating-point sum deterministic.
func (r *Router) classTotals(c int) (completed uint64, rtSum float64, rtCount uint64) {
	for p := 0; p < r.npools; p++ {
		cc := &r.cc[p*r.stride+c]
		completed += cc.completed
		rtSum += cc.rtSum
		rtCount += cc.rtCount
	}
	return completed, rtSum, rtCount
}

// totals returns the fleet-wide routing decision and remote-decision
// counts and the tree nodes all picks examined. Call only while the
// fleet is quiescent.
func (r *Router) totals() (decisions, remotes, visited uint64) {
	for i := range r.origins {
		decisions += r.origins[i].routes
		remotes += r.origins[i].remotes
		visited += r.origins[i].visited
	}
	return decisions, remotes, visited
}
