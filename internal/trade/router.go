package trade

// PoolRouter is the fleet layer's per-request routing hook: when a
// sharded run sets Config.Router, every closed client consults it for
// each request instead of the static pool assignment, and the chosen
// pool serves the request (its own pool directly, a sibling via the
// cross-pool message hop). The simulator reports service-side
// lifecycle edges back through Started/Completed so the router can
// maintain per-pool load state with O(1) counter updates.
//
// Threading contract: Route is called on the ORIGIN pool's shard
// goroutine, in that pool's own event order; Started and Completed are
// called on the SERVING pool's shard goroutine. A router must therefore
// keep per-pool state writable only from the pool's owning shard and
// may publish cross-pool views only at window barriers (see
// sim.Coordinator.SetBarrierHook), which is also what keeps routing
// decisions identical at any shard count. Implementations must not
// allocate on any of these calls — they sit on the zero-alloc request
// path.
type PoolRouter interface {
	// Route picks the serving pool for the next request of the client
	// class (the index of the class's population in Config.Load) issued
	// by pool origin. Returning origin serves the request locally;
	// anything else forwards it over the cross-pool hop (two
	// ShardLatency delays are added to the client's response time).
	Route(origin, class int) int
	// Started reports that a request of the class began service-side
	// accounting at the pool: immediately for a local decision, at hop
	// arrival for a remote one. Open-stream arrivals (never routed)
	// report here too, so in-flight state covers the pool's whole load.
	Started(pool, class int)
	// Completed reports a request of the class finishing at the pool
	// together with its service-side response time (arrival at the pool
	// to response, excluding hop latency).
	Completed(pool, class int, rt float64)
	// Local reports that Route always returns its origin, for the
	// router's whole life. Such a router never sends a request across
	// pools, so the run needs no conservative lookahead for it: with no
	// BarrierHook either, the pools run without window barriers.
	Local() bool
}
