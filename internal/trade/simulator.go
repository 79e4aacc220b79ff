package trade

import (
	"fmt"
	"math"
	"sort"

	"perfpred/internal/obs"
	"perfpred/internal/scenario"
	"perfpred/internal/sim"
	"perfpred/internal/stats"
	"perfpred/internal/workload"
)

// appServer is one member of the application tier: a servlet thread
// pool, a time-shared CPU and (in the §7.2 variant) a session cache in
// its own main memory.
type appServer struct {
	arch      workload.ServerArch
	slots     *sim.Semaphore
	cpu       *sim.Station
	cache     *lruCache
	csLock    *sim.Semaphore // §8.1 critical-section mutex (nil unless enabled)
	completed uint64
}

// simulator wires the application-server tier and the database server
// into a closed multi-class network and drives the client populations.
// The workload-manager routing of the paper's §2 decides which server
// each request visits; the database server keeps one FIFO queue per
// application server (its semaphore's sources are server indices).
//
// All per-request state is pooled: a closed client is an index, carried
// as its pending think event's argument, a request is a reqState in the
// pool's slot table, named by its handle, which every continuation
// carries as its argument to a handler bound once per pool, and each
// population's mix, accumulator and think distribution are resolved
// once into a classState — the steady-state request loop performs no
// heap allocation.
type simulator struct {
	cfg  Config
	eng  *sim.Engine
	apps []*appServer

	dbSlots *sim.Semaphore // db agent pool, per-app-server FIFO
	dbCPU   *sim.Station   // time-shared db CPU/disk

	think  *sim.Stream
	serve  *sim.Stream
	choose *sim.Stream
	route  *sim.Stream

	// The pool's shard, its stable pool index and references to its
	// sibling pools (itself included).
	shard   *sim.Shard
	poolID  uint64
	pools   []*simulator
	sendSeq uint64
	router  PoolRouter // per-request routing hook (nil = static assignment)

	rrNext        int
	stickyWeights []float64 // server speeds, hoisted for assignSticky

	// onThink is every closed client's think-time continuation, bound
	// once: the client is its pending event's argument (sim.Engine.Arg)
	// and its class follows from classState.clientEnd, so a fleet client
	// costs nothing beyond that event. The per-client arrays exist only
	// in the variants that read them.
	onThink      func()
	home         []int32      // sticky home server; nil on a one-server tier or dynamic routing
	sessions     []buySession // detailed-operations buy sessions
	sessionBytes []int64      // session size (cache variant)
	classes      []classState // per Config.Load population

	// The pool's request records and the continuations that serve
	// them. Every handler takes a record's handle (request.go): the
	// station and semaphore handlers as their parameter, the event
	// handlers through sim.Engine.Arg. onHop is bound with the pool,
	// under a router that is not Local; the rest with the first
	// request the pool admits (bindHandlers).
	slotBits                                      uint // a handle's slot bits, the same in every pool of a run
	recs                                          recTable
	onSlot, onCS, onCSDone, onSeg, onDB, onDBDone func(int32)
	onLat, onHop                                  func()

	measuring  bool
	acc        map[string]*classAcc
	classNames []string // sorted class names for deterministic collection
	ops        *opAccumulators

	// intercept, when set, receives every completion (simulated time,
	// response time) from t=0 instead of the measuring-gated class
	// accumulators — the windowed cold-start run's hook.
	intercept func(now, rt float64)

	detail *detailOps // nil unless Config.DetailedOperations
}

// detailOps is the detailed-operation tables (§3.1), resolved once per
// run that reads them, so a fleet pool carries one pointer for them.
type detailOps struct {
	browse                []Operation
	browseWeights         []float64
	register, buy, logoff Operation
}

// simOptions selects constructor variants shared by the steady-state
// and cold-start entry points, and carries each pool's place in its
// run to newSimulator.
type simOptions struct {
	// intercept routes every completion to the caller from t=0.
	intercept func(now, rt float64)

	// newEngine, when set, replaces each shard's calendar engine at
	// construction — the differential test's seam for running one
	// Config on both scheduler backends.
	newEngine func() *sim.Engine

	// Set per pool by newSharded: the shard engine the pool runs on, its
	// root stream (the run's own for one pool, split by pool index for
	// several), its index and the run's pool count, which splits a
	// record handle's bits.
	shard  *sim.Shard
	root   *sim.Stream
	poolID uint64
	pools  int
}

type classAcc struct {
	rt        stats.Accumulator
	samples   []float64
	seen      int
	maxSample int
	rng       *sim.Stream // reservoir sampling stream
}

func (a *classAcc) record(rt float64) {
	a.rt.Add(rt)
	a.seen++
	if a.seen <= a.maxSample {
		// Filling phase: every observation is retained, so quantiles
		// over the buffer are exact — no replacement draws are made and
		// the buffer is an unbiased (indeed complete) sample.
		a.samples = append(a.samples, rt)
		return
	}
	// Reservoir sampling (Algorithm R): observation number `seen`
	// replaces a uniformly random slot with probability
	// maxSample/seen, keeping every prefix a uniform sample.
	if idx := a.rng.Intn(a.seen); idx < a.maxSample {
		a.samples[idx] = rt
	}
}

// classState is what every client of one Config.Load population
// shares, resolved once per run.
type classState struct {
	sampler   *typeSampler   // the resolved request-type mix
	acc       *classAcc      // the response-time accumulator
	think     *scenario.Dist // scenario think-time distribution (nil = exponential)
	thinkMean float64        // the exponential think mean
	// clientEnd is one past the class's last closed-client index:
	// clients register in population order, so class k owns
	// [classes[k-1].clientEnd, clientEnd).
	clientEnd int32
	// Detailed operations (§3.1): a buy population runs register → buys
	// → logoff sessions, a browse population picks browse operations.
	buySessions, detailBrowse bool
}

// thinkDelay draws a class-cls client's next think time: the scenario
// cohort's declared distribution when one is attached, the class's
// exponential otherwise. Both draw from the simulator's think stream,
// and a scenario cohort declaring an exponential think makes the
// exact draw a Config.Load class would, so the two modes stay comparable
// seed-for-seed.
func (s *simulator) thinkDelay(cls int) float64 {
	k := &s.classes[cls]
	if k.think != nil {
		return k.think.Sample(s.think)
	}
	return s.think.Exp(k.thinkMean)
}

// buySession tracks a detailed buy client's place in its
// register → buys → logoff cycle and its growing portfolio (§3.1).
type buySession struct {
	phase    int // 0 register, 1 buying, 2 logoff
	buysLeft int
	holdings int
}

// newSimulator builds one pool's network on its shard engine,
// registers every population and schedules the initial arrivals.
// newSharded validates cfg once and builds every pool on it, so Run,
// Windows and the fleet honour the full Config (caches, critical
// sections, multi-server tiers) with the same per-seed draw sequences.
// The pool's entire draw sequence is a pure function of its root
// stream, invariant under the pool→shard mapping.
func newSimulator(cfg Config, opt simOptions) *simulator {
	if cfg.MaxRTSamples == 0 {
		cfg.MaxRTSamples = DefaultMaxRTSamples
	}
	// A scenario supplies the workload: materialise it into the local
	// config copy so population bookkeeping (accumulators, routers,
	// collection) works unchanged, and keep the cohorts aligned with the
	// derived Load for the scenario-specific registration below.
	var cohorts []*scenario.Cohort
	if cfg.Scenario != nil {
		cfg.Load = cfg.Scenario.Workload()
		cohorts = cfg.Scenario.Cohorts
	}
	eng, root := opt.shard.Eng, opt.root
	s := &simulator{
		cfg:       cfg,
		eng:       eng,
		dbSlots:   sim.NewSemaphore(eng, cfg.DB.Name+"/agents", cfg.DB.MPL),
		dbCPU:     sim.NewStation(eng, cfg.DB.Name+"/cpu", cfg.DB.Speed),
		think:     root.Derive(1),
		serve:     root.Derive(2),
		choose:    root.Derive(3),
		route:     root.Derive(5),
		acc:       make(map[string]*classAcc),
		shard:     opt.shard,
		poolID:    opt.poolID,
		router:    cfg.Router,
		intercept: opt.intercept,
		slotBits:  slotBitsFor(opt.pools),
	}
	s.recs.base = uint32(opt.poolID) << s.slotBits
	for _, arch := range cfg.tier() {
		app := &appServer{
			arch:  arch,
			slots: sim.NewSemaphore(eng, arch.Name+"/threads", arch.MPL),
			cpu:   sim.NewStation(eng, arch.Name+"/cpu", arch.Speed),
		}
		if cfg.Cache != nil {
			app.cache = newLRUCache(cfg.Cache.SizeBytes)
		}
		if cfg.CriticalSection != nil {
			app.csLock = sim.NewSemaphore(eng, arch.Name+"/critsec", 1)
		}
		s.apps = append(s.apps, app)
	}
	if len(s.apps) > 1 {
		s.stickyWeights = make([]float64, len(s.apps))
		for i, app := range s.apps {
			s.stickyWeights[i] = app.arch.Speed
		}
	}
	if cfg.DetailedOperations {
		s.ops = newOpAccumulators(cfg.MaxRTSamples, root.Derive(7))
		dt := &detailOps{browse: browseOperations()}
		dt.browseWeights = make([]float64, len(dt.browse))
		for i, op := range dt.browse {
			dt.browseWeights[i] = op.Weight
		}
		dt.register, dt.buy, dt.logoff = buySessionOperations()
		s.detail = dt
	}
	sampleRNG := root.Derive(4)
	arrivals := root.Derive(6)

	// Resolve the per-class table and size the per-client arrays before
	// registration, allocating only the arrays this configuration reads.
	totalClients := 0
	s.classes = make([]classState, len(cfg.Load))
	for pi, pop := range cfg.Load {
		k := &s.classes[pi]
		k.sampler = newTypeSampler(pop.Class.Mix, cfg.Demands)
		k.thinkMean = pop.Class.ThinkTimeMean
		if cohorts != nil {
			k.think = cohorts[pi].Think
		}
		if cfg.DetailedOperations {
			k.buySessions = pop.Class.Mix.Fraction(workload.Buy) == 1
			k.detailBrowse = !k.buySessions && pop.Class.Mix.Fraction(workload.Browse) == 1
		}
		if !pop.Open() {
			totalClients += pop.Clients
		}
		k.clientEnd = int32(totalClients)
	}
	s.onThink = s.thinkDone
	if (cfg.Routing == RouteSticky || cfg.Routing == "") && len(s.apps) > 1 {
		s.home = make([]int32, totalClients)
	}
	if cfg.DetailedOperations {
		s.sessions = make([]buySession, totalClients)
	}
	if cfg.Cache != nil {
		s.sessionBytes = make([]int64, totalClients)
	}

	// Registration order, and the draw order within it, are what every
	// seeded result rests on: per closed client a sticky-route draw, a
	// session-size draw (cache variant) and a think-time draw, in
	// population order; open streams draw their first inter-arrival gap
	// in place.
	eng.Reserve(totalClients) // one think timer per closed client, from one slab
	id := 0
	for pi, pop := range cfg.Load {
		sampler := s.classes[pi].sampler
		s.acc[pop.Class.Name] = &classAcc{maxSample: cfg.MaxRTSamples, rng: sampleRNG.Derive(uint64(len(s.acc)))}
		if pop.Open() {
			// Open stream: spec-defined generator for scenario cohorts
			// (Poisson, MMPP, trace, with temporal patterns); constant-rate
			// Poisson arrivals (§8.1) otherwise. Either way each arrival is
			// an independent request with no think loop and no session
			// identity.
			if cohorts != nil {
				s.startScenarioStream(cohorts[pi], pi, sampler, root)
			} else {
				s.startOpenStream(pop, pi, sampler, arrivals.Derive(uint64(len(s.acc))))
			}
			continue
		}
		for i := 0; i < pop.Clients; i++ {
			if s.home != nil {
				s.home[id] = int32(s.assignSticky())
			}
			if s.sessionBytes != nil {
				size := int64(s.serve.Exp(cfg.Cache.SessionBytesMean))
				if size < 1 {
					size = 1
				}
				s.sessionBytes[id] = size
			}
			// Stagger initial arrivals across one think time so the
			// run does not start with a synchronized burst.
			eng.ScheduleArg(s.thinkDelay(pi), s.onThink, int32(id))
			id++
		}
	}
	// Bind accumulators in a second pass: with duplicate class names the
	// last registration wins for every population of that name, so one
	// name is one accumulator.
	for pi, pop := range cfg.Load {
		s.classes[pi].acc = s.acc[pop.Class.Name]
	}
	s.classNames = make([]string, 0, len(s.acc))
	for name := range s.acc {
		s.classNames = append(s.classNames, name)
	}
	sort.Strings(s.classNames)
	if s.router != nil && !s.router.Local() {
		s.onHop = s.hopped
	}
	return s
}

// startOpenStream schedules Poisson arrivals for an open population.
// Each arrival routes like a dynamic request (sticky policies fall
// back to speed-weighted random choice — an arrival has no home
// server) and bypasses the session cache, which models per-client
// state that open requests do not carry.
func (s *simulator) startOpenStream(pop workload.Population, classIdx int, sampler *typeSampler, rng *sim.Stream) {
	mean := 1 / pop.ArrivalRate
	var arrive func()
	arrive = func() {
		s.eng.Schedule(rng.Exp(mean), arrive)
		s.admit(s.newReq(-1, int32(classIdx), sampler.sample(s.choose)), -1)
	}
	s.eng.Schedule(rng.Exp(mean), arrive)
}

// admit starts serving request r at this pool, given the issuing
// client's home server (-1 for a request with none: an open stream's
// or scenario cohort's arrival, or a sibling pool's request landing
// off the hop, which routes by speed-weighted random choice). Every
// request enters here after its issuer has made its draws: it is
// stamped with its arrival, routed to an application server, counted
// by the fleet router and queued for a thread.
func (s *simulator) admit(r *reqState, home int) {
	if s.onSlot == nil {
		s.bindHandlers()
	}
	r.arrival = s.eng.Now()
	r.srv = int32(s.pickServerFor(home))
	if s.router != nil {
		// The request occupies this pool, so the router's in-flight
		// state counts it — on the serving pool's shard, the router's
		// threading contract.
		s.router.Started(int(s.poolID), int(r.cls))
	}
	s.apps[r.srv].slots.Acquire(0, s.onSlot, r.h)
}

// assignSticky spreads clients across the tier in proportion to server
// speed, the division a workload manager would make from the speed
// benchmarks.
func (s *simulator) assignSticky() int {
	if len(s.apps) == 1 {
		return 0
	}
	return s.route.Choose(s.stickyWeights)
}

// pickServerFor routes one request per the configured policy, given
// the issuing client's home server. A negative home (an open arrival,
// which has none) routes sticky by speed-weighted random selection.
func (s *simulator) pickServerFor(home int) int {
	switch s.cfg.Routing {
	case RouteRoundRobin:
		i := s.rrNext % len(s.apps)
		s.rrNext++
		return i
	case RouteLeastBusy:
		best, bestLoad := 0, math.MaxInt
		for i, app := range s.apps {
			load := app.slots.Held() + app.slots.Queued()
			if load < bestLoad {
				best, bestLoad = i, load
			}
		}
		return best
	default: // RouteSticky
		if home < 0 {
			return s.assignSticky()
		}
		return home
	}
}

// beginMeasurement discards everything observed so far and starts the
// measured window.
func (s *simulator) beginMeasurement() {
	s.measuring = true
	for _, app := range s.apps {
		app.cpu.ResetStats()
		app.slots.ResetStats()
		app.completed = 0
		if app.cache != nil {
			app.cache.resetStats()
		}
	}
	s.dbCPU.ResetStats()
	s.dbSlots.ResetStats()
}

// thinkDone is onThink: the closed client the firing event carries has
// finished thinking, so it issues its next request.
func (s *simulator) thinkDone() {
	c := s.eng.Arg()
	cls := 0
	for s.classes[cls].clientEnd <= c {
		cls++
	}
	s.issueRequest(c, int32(cls))
}

// issueRequest begins one request of closed client c, of class cls:
// route it to a pool, pick the operation (or coarse request type),
// then serve it here or ship it to the routed pool, respond, think and
// repeat. The demand is drawn here, on the issuing pool's own streams,
// keeping every stream pool-local; a serving sibling only executes it.
// The whole lifecycle runs on one pooled reqState, named by its handle
// to handlers bound once per pool — no per-request closures.
func (s *simulator) issueRequest(c, cls int32) {
	dst := s
	if s.router != nil {
		dst = s.pools[s.router.Route(int(s.poolID), int(cls))]
	}
	d, opName := s.nextRequest(c, cls)
	r := s.newReq(c, cls, d)
	r.opName = opName
	if dst != s {
		s.ship(r, dst)
		return
	}
	home := 0
	if s.home != nil {
		home = int(s.home[c])
	}
	s.admit(r, home)
}

// nextRequest resolves closed client c's next request to a demand and,
// under DetailedOperations, the Trade operation behind it.
func (s *simulator) nextRequest(c, cls int32) (workload.Demand, string) {
	k := &s.classes[cls]
	d := k.sampler.sample(s.choose)
	if !s.cfg.DetailedOperations {
		return d, ""
	}
	if k.buySessions {
		return s.nextBuyOperation(&s.sessions[c], d)
	}
	if k.detailBrowse {
		op := s.detail.browse[s.choose.Choose(s.detail.browseWeights)]
		return applyOperation(d, op), op.Name
	}
	return d, ""
}

// nextBuyOperation advances a buy session: register/login, a run of
// buys with a growing portfolio, then logoff (§3.1).
func (s *simulator) nextBuyOperation(sess *buySession, d workload.Demand) (workload.Demand, string) {
	switch sess.phase {
	case 0:
		sess.phase = 1
		sess.buysLeft = workload.BuyRequestsPerSession
		sess.holdings = 0
		return applyOperation(d, s.detail.register), s.detail.register.Name
	case 1:
		scaled := applyOperation(d, s.detail.buy)
		scaled.AppServerTime *= portfolioScale(sess.holdings)
		sess.holdings++
		sess.buysLeft--
		if sess.buysLeft == 0 {
			sess.phase = 2
		}
		return scaled, s.detail.buy.Name
	default:
		sess.phase = 0
		return applyOperation(d, s.detail.logoff), s.detail.logoff.Name
	}
}

// applyOperation specialises a request type's demand for one
// operation.
func applyOperation(d workload.Demand, op Operation) workload.Demand {
	out := d
	out.AppServerTime = d.AppServerTime * op.DemandScale
	if op.DBCalls > 0 {
		out.DBCallsPerRequest = op.DBCalls
	}
	return out
}

// sampleCalls draws an integer call count with the given mean:
// floor(mean) plus a Bernoulli trial on the fractional part, the
// standard way to realise the paper's fractional "1.14 database
// requests on average".
func (s *simulator) sampleCalls(mean float64) int {
	if mean <= 0 {
		return 0
	}
	base := int(mean)
	frac := mean - float64(base)
	if frac > 0 && s.serve.Float64() < frac {
		base++
	}
	return base
}

// measuredTotals returns the running response-time sum and completion
// count across classes, in sorted-name order so the sum is
// deterministic regardless of map layout.
func (s *simulator) measuredTotals() (sum float64, count int) {
	for _, name := range s.classNames {
		acc := s.acc[name]
		count += acc.rt.Count()
		sum += acc.rt.Sum()
	}
	return sum, count
}

// collect reduces the measurements of a run's pools over a measured
// window of duration seconds into one Result: Welford accumulators
// merge exactly, samples concatenate, utilisation is speed-weighted
// across every server, and per-server rows are prefixed "p<pool>/"
// when there is more than one pool. Pools are visited in index order and
// classes in sorted-name order, so every floating-point reduction is
// deterministic; with one pool every merge is a copy and every average
// a division by one, so the result is exactly that pool's own.
func collect(pools []*simulator, duration float64, fired uint64) *Result {
	res := &Result{
		PerClass:    make(map[string]ClassResult, len(pools[0].acc)),
		Duration:    duration,
		EventsFired: fired,
	}
	var speedSum, utilSum, heldSum, queueSum, dbUtilSum float64
	var hits, misses uint64
	for pi, p := range pools {
		for _, app := range p.apps {
			name := app.arch.Name
			if len(pools) > 1 {
				name = fmt.Sprintf("p%d/%s", pi, name)
			}
			u := app.cpu.Utilization()
			res.PerServer = append(res.PerServer, ServerResult{
				Name:          name,
				Utilization:   u,
				MeanSlotsHeld: app.slots.MeanHeld(),
				Completed:     int(app.completed),
				Throughput:    float64(app.completed) / duration,
			})
			speedSum += app.arch.Speed
			utilSum += u * app.arch.Speed
			heldSum += app.slots.MeanHeld()
			queueSum += app.slots.MeanQueued()
			if app.cache != nil {
				hits += app.cache.hits
				misses += app.cache.misses
			}
		}
		dbUtilSum += p.dbCPU.Utilization()
	}
	// Tier-level utilisation is the speed-weighted mean: the fraction
	// of the total processing capacity in use.
	if speedSum > 0 {
		res.AppUtilization = utilSum / speedSum
	}
	res.MeanAppSlotsHeld = heldSum
	res.MeanAppQueue = queueSum
	res.DBUtilization = dbUtilSum / float64(len(pools))
	if hits+misses > 0 {
		res.CacheMissRate = float64(misses) / float64(hits+misses)
	}
	// Every pool registers the same class set, so merge by the first
	// pool's sorted names.
	var totalWeighted float64
	totalCompleted := 0
	for _, name := range pools[0].classNames {
		var merged stats.Accumulator
		var samples []float64
		for _, p := range pools {
			acc := p.acc[name]
			merged.Merge(&acc.rt)
			if len(pools) == 1 {
				samples = acc.samples // the buffer itself, not a copy
			} else {
				samples = append(samples, acc.samples...)
			}
		}
		cr := ClassResult{
			Completed:  merged.Count(),
			MeanRT:     merged.Mean(),
			RTStdDev:   merged.StdDev(),
			Throughput: float64(merged.Count()) / duration,
			Samples:    samples,
		}
		res.PerClass[name] = cr
		totalWeighted += cr.MeanRT * float64(cr.Completed)
		totalCompleted += cr.Completed
	}
	if totalCompleted > 0 {
		res.MeanRT = totalWeighted / float64(totalCompleted)
	}
	res.Throughput = float64(totalCompleted) / duration
	if ops := pools[0].ops; ops != nil { // one-pool runs only
		res.PerOperation = ops.results()
	}
	for _, p := range pools {
		_, poolCompleted := p.measuredTotals()
		p.flushMetrics(poolCompleted)
	}
	return res
}

// The Trade simulator's process-wide counters, summed over every run.
// A simulator keeps plain per-instance counters (it is strictly
// single-goroutine) and flushMetrics publishes them once per run, at
// collect time, so the request loop stays allocation-free.
var (
	tradeRuns              = obs.DeclareCounter("trade_runs")                // runs built (Run, Windows, NewSharded), each once
	tradeRequestsCompleted = obs.DeclareCounter("trade_requests_completed")  // measured request completions
	tradeRequestPoolReuses = obs.DeclareCounter("trade_request_pool_reuses") // request records served from the free list
	tradeRequestPoolAllocs = obs.DeclareCounter("trade_request_pool_allocs") // request records newly allocated
	tradeCacheHits         = obs.DeclareCounter("trade_cache_hits")          // session-cache hits (measured window)
	tradeCacheMisses       = obs.DeclareCounter("trade_cache_misses")        // session-cache misses (measured window)
	tradeCacheEvicts       = obs.DeclareCounter("trade_cache_evicts")        // session-cache evictions (measured window)
)

// flushMetrics publishes one run's totals, with the measured completion
// count already summed.
func (s *simulator) flushMetrics(totalCompleted int) {
	if !tradeRequestsCompleted.Bound() {
		return
	}
	tradeRequestsCompleted.Add(uint64(totalCompleted))
	tradeRequestPoolReuses.Add(s.recs.reused)
	tradeRequestPoolAllocs.Add(uint64(s.recs.n))
	for _, app := range s.apps {
		if app.cache != nil {
			tradeCacheHits.Add(app.cache.hits)
			tradeCacheMisses.Add(app.cache.misses)
			tradeCacheEvicts.Add(app.cache.evicts)
		}
	}
}
