package trade

import (
	"fmt"
	"math"
	"sort"

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
// application server (sim.PerSourceFIFO keyed by server index).
//
// All per-request state is pooled: closed clients are indices into
// per-client arrays, request lifecycles live in a free list of
// reqStates, and each population's mix, accumulator and think
// distribution are resolved once into a classState — the steady-state
// request loop performs no heap allocation.
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

	// Sharded-fleet wiring (nil/zero on the single-engine path):
	// the pool's shard, its stable pool index, references to sibling
	// pools and a free list of cross-pool request records.
	shard   *sim.Shard
	poolID  uint64
	pools   []*simulator
	sendSeq uint64
	xFree   *xreq
	router  PoolRouter // per-request routing hook (nil = static assignment)

	rrNext        int
	stickyWeights []float64 // server speeds, hoisted for assignSticky

	// Per-client arrays. issue[i] is closed client i's continuation,
	// bound once at registration; it captures the simulator, i and the
	// client's Config.Load index, so a fleet client costs its slot here
	// plus that 24-byte closure — 32 bytes. The other arrays exist only
	// in the variants that read them.
	issue        []func()
	home         []int32      // sticky home server; nil on a one-server tier or dynamic routing
	sessions     []buySession // detailed-operations buy sessions
	sessionBytes []int64      // session size (cache variant)
	classes      []classState // per Config.Load population

	reqFree *reqState // retired request records for reuse

	// Plain instrumentation counters (a simulator is single-goroutine);
	// flushMetrics publishes them to the process-wide atomics at collect.
	poolReuses, poolAllocs uint64

	measuring  bool
	acc        map[string]*classAcc
	classNames []string // sorted class names for deterministic collection
	ops        *opAccumulators

	// intercept, when set, receives every completion (simulated time,
	// response time) from t=0 instead of the measuring-gated class
	// accumulators — the windowed cold-start run's hook.
	intercept func(now, rt float64)

	// Hoisted detailed-operation tables (§3.1), resolved once per run.
	browseOps                   []Operation
	browseWeights               []float64
	opRegister, opBuy, opLogoff Operation
}

// simOptions selects constructor variants shared by the steady-state
// and cold-start entry points.
type simOptions struct {
	// intercept routes every completion to the caller from t=0.
	intercept func(now, rt float64)

	// newEngine, when set, builds the private engine of a single-engine
	// run in place of sim.NewEngineCalendar — the differential test's
	// seam for running one Config on both scheduler backends.
	newEngine func() *sim.Engine

	// Sharded-fleet construction (set by NewSharded): build the pool on
	// an existing shard engine with a pool-split root stream instead of
	// a private engine seeded directly from cfg.Seed.
	shard  *sim.Shard
	root   *sim.Stream
	poolID uint64
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

// Run simulates the configured measurement and returns its result:
// warm up, reset statistics, measure, collect. A sharded configuration
// runs the same lifecycle on a ShardedRun.
func Run(cfg Config) (*Result, error) {
	if cfg.sharded() {
		r, err := NewSharded(cfg)
		if err != nil {
			return nil, err
		}
		defer r.Close()
		r.Advance(cfg.WarmUp)
		r.BeginMeasurement()
		r.Advance(cfg.WarmUp + cfg.Duration)
		return r.Collect(), nil
	}
	return run(cfg, simOptions{})
}

// run is the single-engine Run under the given constructor variant.
func run(cfg Config, opt simOptions) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := newSimulator(cfg, opt)
	s.eng.Run(cfg.WarmUp, 0)
	s.beginMeasurement()
	s.eng.Run(cfg.WarmUp+cfg.Duration, 0)
	return collect([]*simulator{s}, cfg.Duration, s.eng.Fired(), false), nil
}

// newSimulator builds the network, registers every population and
// schedules the initial arrivals. Every entry point (Run, Windows,
// NewSharded) validates cfg once and then builds on it, so
// cold-start studies honour the full Config (caches, critical sections,
// multi-server tiers) with the same per-seed draw sequences.
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
	newEngine := sim.NewEngineCalendar
	if opt.newEngine != nil {
		newEngine = opt.newEngine
	}
	root := sim.NewStream(cfg.Seed)
	var eng *sim.Engine
	if opt.shard == nil {
		eng = newEngine()
		recordRun()
	} else {
		// Sharded pool: run on the shard's calendar engine with a root
		// stream split by stable pool index, so the pool's entire draw
		// sequence is a pure function of (Seed, pool) — invariant under
		// the pool→shard mapping.
		eng = opt.shard.Eng
		root = opt.root
	}
	s := &simulator{
		cfg:       cfg,
		eng:       eng,
		dbSlots:   sim.NewSemaphore(eng, cfg.DB.Name+"/agents", cfg.DB.MPL, sim.PerSourceFIFO),
		dbCPU:     sim.NewStation(eng, cfg.DB.Name+"/cpu", cfg.DB.Speed),
		think:     root.Derive(1),
		serve:     root.Derive(2),
		choose:    root.Derive(3),
		route:     root.Derive(5),
		acc:       make(map[string]*classAcc),
		intercept: opt.intercept,
	}
	for _, arch := range cfg.tier() {
		app := &appServer{
			arch:  arch,
			slots: sim.NewSemaphore(eng, arch.Name+"/threads", arch.MPL, sim.GlobalFIFO),
			cpu:   sim.NewStation(eng, arch.Name+"/cpu", arch.Speed),
		}
		if cfg.Cache != nil {
			app.cache = newLRUCache(cfg.Cache.SizeBytes)
		}
		if cfg.CriticalSection != nil {
			app.csLock = sim.NewSemaphore(eng, arch.Name+"/critsec", 1, sim.GlobalFIFO)
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
		s.browseOps = browseOperations()
		s.browseWeights = make([]float64, len(s.browseOps))
		for i, op := range s.browseOps {
			s.browseWeights[i] = op.Weight
		}
		s.opRegister, s.opBuy, s.opLogoff = buySessionOperations()
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
	}
	s.issue = make([]func(), totalClients)
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
			c, cls := int32(id), int32(pi)
			s.issue[id] = func() { s.issueRequest(c, cls) }
			// Stagger initial arrivals across one think time so the
			// run does not start with a synchronized burst.
			eng.Schedule(s.thinkDelay(pi), s.issue[id])
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
	if opt.shard != nil {
		s.shard = opt.shard
		s.poolID = opt.poolID
		s.router = cfg.Router
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
		s.admitOpen(s.classes[classIdx].acc, classIdx, sampler.sample(s.choose), nil)
	}
	s.eng.Schedule(rng.Exp(mean), arrive)
}

// admitOpen starts one request that no local client issued — an open
// stream's or scenario cohort's arrival, or (xr non-nil) a sibling
// pool's request landing off the cross-pool hop — on a pooled reqState.
// Callers make their own draws first; from here every such request
// routes like a dynamic one and carries no session identity, so it
// bypasses the session cache and the critical section.
func (s *simulator) admitOpen(acc *classAcc, classIdx int, d workload.Demand, xr *xreq) {
	r := s.getReq()
	r.client = -1
	r.acc = acc
	r.cls = classIdx
	r.d = d
	r.xr = xr
	r.arrival = s.eng.Now()
	r.srv = s.pickServerOpen()
	r.app = s.apps[r.srv]
	if s.router != nil {
		// Never routed across pools from here, but the request occupies
		// this pool, so the router's in-flight state counts it — on the
		// serving pool's shard, the router's threading contract.
		s.router.Started(int(s.poolID), classIdx)
	}
	r.app.slots.Acquire(0, r.onSlot)
}

// pickServerOpen routes an open arrival: dynamic policies apply as-is;
// sticky falls back to speed-weighted random selection.
func (s *simulator) pickServerOpen() int {
	switch s.cfg.Routing {
	case RouteRoundRobin, RouteLeastBusy:
		return s.pickServerFor(0)
	default:
		return s.assignSticky()
	}
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
// the issuing client's home server.
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

// issueRequest begins one request of closed client c, of class cls:
// pick the operation (or coarse request type), route it to an
// application server, queue for a thread, process, respond, then think
// and repeat. The whole lifecycle runs on a pooled reqState — no
// per-request closures.
func (s *simulator) issueRequest(c, cls int32) {
	if s.router != nil {
		// Per-request fleet routing: the router picks the serving pool;
		// anything but the client's own pool rides the cross-pool hop.
		if dst := s.router.Route(int(s.poolID), int(cls)); dst != int(s.poolID) {
			s.issueRemoteTo(c, cls, dst)
			return
		}
		s.router.Started(int(s.poolID), int(cls))
	}
	d, opName := s.nextRequest(c, cls)
	r := s.getReq()
	r.client = c
	r.acc = s.classes[cls].acc
	r.cls = int(cls)
	r.d = d
	r.opName = opName
	r.arrival = s.eng.Now()
	home := 0
	if s.home != nil {
		home = int(s.home[c])
	}
	r.srv = s.pickServerFor(home)
	r.app = s.apps[r.srv]
	r.app.slots.Acquire(0, r.onSlot)
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
		op := s.browseOps[s.choose.Choose(s.browseWeights)]
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
		return applyOperation(d, s.opRegister), s.opRegister.Name
	case 1:
		scaled := applyOperation(d, s.opBuy)
		scaled.AppServerTime *= portfolioScale(sess.holdings)
		sess.holdings++
		sess.buysLeft--
		if sess.buysLeft == 0 {
			sess.phase = 2
		}
		return scaled, s.opBuy.Name
	default:
		sess.phase = 0
		return applyOperation(d, s.opLogoff), s.opLogoff.Name
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

// collect reduces the measurements of a run's pools — one for a
// single-engine run, the whole fleet for a sharded one — over a
// measured window of duration seconds into one Result: Welford
// accumulators merge exactly, samples concatenate, utilisation is
// speed-weighted across every server, and per-server rows are prefixed
// "p<pool>/" when namespaced. Pools are visited in index order and
// classes in sorted-name order, so every floating-point reduction is
// deterministic; with one pool every merge is a copy and every average
// a division by one, so the result is exactly that pool's own.
func collect(pools []*simulator, duration float64, fired uint64, namespaced bool) *Result {
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
			if namespaced {
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
			Class:      name,
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
	if ops := pools[0].ops; ops != nil { // single-engine runs only
		res.PerOperation = ops.results()
	}
	for _, p := range pools {
		_, poolCompleted := p.measuredTotals()
		p.flushMetrics(poolCompleted)
	}
	return res
}
