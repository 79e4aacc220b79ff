package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"perfpred/internal/hybrid"
	"perfpred/internal/serve"
	"perfpred/internal/stats"
	"perfpred/internal/workload"
)

// Both serve workloads are closed loops: the callers of a prediction
// service are resource managers that wait for each reply. The load is
// fixed for a 2-core box, not scaled by the machine: 2 client
// goroutines on 2 keep-alive connections against an in-process
// serve.Service behind an httptest.Server.
const serveClients = 2

// spanHeader carries "<client span id>.<request id>" to the handler
// wrapper so server-side spans link to the client span that caused them.
const spanHeader = "X-Bench-Span"

type serveKind int

const (
	kindHybrid serveKind = iota
	kindPercentile
	kindCapacity
	kindLQN
	kindRegress
	numKinds
)

var kindNames = [numKinds]string{"hybrid", "percentile", "capacity", "lqn", "regress"}

// serveReq is one generated request: the wire form the client sends
// and the decoded form the in-process probe hands to the Service.
type serveReq struct {
	kind    serveKind
	path    string
	body    []byte
	predict serve.PredictRequest
	cap     serve.CapacityRequest
}

func newPredict(kind serveKind, pr serve.PredictRequest) serveReq {
	body, _ := json.Marshal(pr)
	return serveReq{kind: kind, path: "/v1/predict", body: body, predict: pr}
}

// knee is the architecture's saturation population under the typical
// workload; requests draw populations from [knee/2, 3·knee/2] so both
// model equations and the transition between them are exercised.
func knee(a workload.ServerArch) float64 { return a.MaxThroughputTypical * workload.ThinkTimeMean }

func population(r *rand.Rand, a workload.ServerArch) float64 {
	return math.Floor(knee(a) * (0.5 + r.Float64()))
}

// serveAnswer is the part of either response body the checks read.
type serveAnswer struct {
	ResponseTimeS *float64 `json:"response_time_s"`
	MaxClients    *float64 `json:"max_clients"`
	Cold          bool     `json:"cold"`
	BuildMS       float64  `json:"build_ms"`
}

func (a *serveAnswer) valid(kind serveKind) bool {
	v := a.ResponseTimeS
	if kind == kindCapacity {
		v = a.MaxClients
	}
	return v != nil && *v > 0 && !math.IsInf(*v, 0) && !math.IsNaN(*v)
}

// serveInst is a running service plus the request stream that drives it.
type serveInst struct {
	e       *env
	svc     *serve.Service
	handler http.Handler // what the server mounts, span wrapper excluded
	srv     *httptest.Server
	client  *http.Client
	// newGen returns a request generator drawing from r; gen is the
	// workload's own, seeded with -seed.
	newGen    func(r *rand.Rand) func() serveReq
	gen       func() serveReq
	perClient int
	nextReq   int64

	// Accumulated over the untraced units, microseconds.
	lat     []float64
	kindLat [numKinds][]float64
	hitLat  []float64
	buildMS []float64
	// From the traced units' spans, microseconds.
	socketSelf []float64
	handlerDur []float64
	reqs, wall float64 // untraced requests and seconds, for serve.req_per_s
}

func serveConfig(e *env) serve.Config {
	cfg := serve.Config{
		Archs:   workload.CaseStudyServers(),
		DB:      workload.CaseStudyDB(),
		Demands: workload.CaseStudyDemands(),
		// The production defaults: a cold build pays the 40-simulated-
		// second percentile calibration, the regress tier 8 × 20.
		CalibrationSimSeconds: 40,
		RegressSimSeconds:     20,
		BuildWorkers:          2,
		SolveWorkers:          2,
	}
	if e.opt.quick {
		cfg.CalibrationSimSeconds, cfg.RegressSimSeconds = 4, 2
	}
	return cfg
}

// newServeInst starts the service; perClient is already scaled.
func newServeInst(e *env, cfg serve.Config, perClient int, newGen func(*rand.Rand) func() serveReq) (*serveInst, error) {
	svc, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	s := &serveInst{
		e: e, svc: svc, perClient: perClient,
		newGen: newGen, gen: newGen(rand.New(rand.NewSource(e.opt.seed))),
	}
	s.handler = svc.Handler()
	if e.serveWrap != nil {
		s.handler = e.serveWrap(s.handler)
	}
	mounted := s.handler
	if e.sp != nil {
		mounted = spanHandler(e.sp, s.handler)
	}
	s.srv = httptest.NewServer(mounted)
	s.client = &http.Client{Transport: &http.Transport{
		MaxIdleConns: serveClients, MaxIdleConnsPerHost: serveClients, MaxConnsPerHost: serveClients,
	}}
	return s, nil
}

func (s *serveInst) close() {
	s.client.CloseIdleConnections()
	s.srv.Close()
	s.svc.Close()
}

// spanHandler records a serve.handler span around requests that carry
// the span header; requests of untraced units pass straight through.
func spanHandler(sp *tracer, h http.Handler) http.Handler {
	name := sp.name("serve.handler")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hdr := r.Header.Get(spanHeader)
		if hdr == "" {
			h.ServeHTTP(w, r)
			return
		}
		parentStr, reqStr, _ := strings.Cut(hdr, ".")
		parent, _ := strconv.ParseInt(parentStr, 10, 64)
		req, _ := strconv.ParseInt(reqStr, 10, 64)
		id := sp.begin(name, parent, req)
		h.ServeHTTP(w, r)
		sp.end(id)
	})
}

// reply is what a client keeps of one request.
type reply struct {
	us      float64 // latency as the caller sees it: send to decoded answer
	ok      bool
	cold    bool
	buildMS float64
}

// drive sends reqs one after another on one connection, as one caller
// would, and fills out (allocated by the caller, outside the timing).
func (s *serveInst) drive(reqs []serveReq, firstReq int64, sp *tracer, out []reply) {
	var buf bytes.Buffer
	name := sp.name("client.request")
	for i := range reqs {
		rq := &reqs[i]
		t0 := time.Now()
		id := sp.begin(name, 0, firstReq+int64(i))
		ans, ok := s.roundTrip(rq, &buf, id, firstReq+int64(i))
		sp.end(id)
		out[i] = reply{
			us: float64(time.Since(t0)) / 1e3, ok: ok && ans.valid(rq.kind),
			cold: ans.Cold, buildMS: ans.BuildMS,
		}
	}
}

func (s *serveInst) roundTrip(rq *serveReq, buf *bytes.Buffer, span, reqID int64) (ans serveAnswer, ok bool) {
	req, err := http.NewRequest(http.MethodPost, s.srv.URL+rq.path, bytes.NewReader(rq.body))
	if err != nil {
		return ans, false
	}
	req.Header.Set("Content-Type", "application/json")
	if span != 0 {
		req.Header.Set(spanHeader, strconv.FormatInt(span, 10)+"."+strconv.FormatInt(reqID, 10))
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return ans, false
	}
	buf.Reset()
	_, err = io.Copy(buf, resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return ans, false
	}
	err = json.Unmarshal(buf.Bytes(), &ans)
	return ans, err == nil
}

// send runs one closed-loop round: each client works through its own
// request list. The lists and reply buffers are built before the clock
// starts.
func (s *serveInst) send(lists [serveClients][]serveReq, sp *tracer) (replies [serveClients][]reply, wall time.Duration) {
	first := [serveClients]int64{}
	for c := range lists {
		replies[c] = make([]reply, len(lists[c]))
		first[c] = s.nextReq
		s.nextReq += int64(len(lists[c]))
	}
	var wg sync.WaitGroup
	start := time.Now()
	for c := range lists {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			s.drive(lists[c], first[c], sp, replies[c])
		}(c)
	}
	wg.Wait()
	return replies, time.Since(start)
}

func (s *serveInst) unit(sp *tracer) (unitStats, error) {
	var lists [serveClients][]serveReq
	for c := range lists {
		lists[c] = make([]serveReq, s.perClient)
		for i := range lists[c] {
			lists[c][i] = s.gen()
		}
	}
	spansBefore := sp.len()
	replies, wall := s.send(lists, sp)

	u := unitStats{wall: wall}
	for c := range replies {
		for i, r := range replies[c] {
			u.attempted++
			if !r.ok {
				u.failed++
				continue
			}
			u.ops++
			if sp != nil {
				continue
			}
			kind := lists[c][i].kind
			s.lat = append(s.lat, r.us)
			s.kindLat[kind] = append(s.kindLat[kind], r.us)
			if r.cold {
				s.buildMS = append(s.buildMS, r.buildMS)
			} else {
				s.hitLat = append(s.hitLat, r.us)
			}
		}
	}
	if sp == nil {
		s.reqs += float64(u.ops)
		s.wall += wall.Seconds()
	} else {
		spans := sp.since(spansBefore)
		self := selfTimes(spans)
		for _, x := range spans {
			if x.Parent == 0 { // client.request; its child is serve.handler
				s.socketSelf = append(s.socketSelf, float64(self[x.ID])/1e3)
			} else {
				s.handlerDur = append(s.handlerDur, float64(x.End-x.Start)/1e3)
			}
		}
	}
	return u, nil
}

func (s *serveInst) finish(rep *report, layer map[string]float64) {
	rep.Samples["serve.latency"] = len(s.lat)
	rep.Samples["serve.latency_beyond_p99"] = len(s.lat) / 100 // the p99's support
	rep.Samples["serve.builds_seen_by_clients"] = len(s.buildMS)
	p50, p99 := stats.Percentile(s.lat, 50), stats.Percentile(s.lat, 99)
	rep.Info["serve.latency_p50_us"], rep.Info["serve.latency_p99_us"] = p50, p99
	if s.e.sp == nil {
		return
	}
	layer["serve.req_per_s"] = s.reqs / s.wall
	layer["serve.latency_p50_us"], layer["serve.latency_p99_us"] = p50, p99
	for k, name := range kindNames {
		layer["serve.kind_us_p50."+name] = stats.Percentile(s.kindLat[k], 50)
	}
	layer["serve.build_ms_p50"] = stats.Percentile(s.buildMS, 50)
	layer["serve.hit_latency_us_p50"] = stats.Percentile(s.hitLat, 50)
	layer["serve.socket_us_p50"] = stats.Percentile(s.socketSelf, 50)

	// The same request mix with the socket, then the codec, taken away:
	// Handler().ServeHTTP on an in-memory recorder, and the Service's
	// in-process entry points. Requests are generated from a stream of
	// their own so the probe does not shift the workload's inputs.
	gen := s.newGen(rand.New(rand.NewSource(s.e.opt.seed + 1)))
	n := min(s.e.scale(2000), s.perClient) // serve_churn's share pays builds
	direct, recorded := make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		rq := gen()
		hr := httptest.NewRequest(http.MethodPost, rq.path, bytes.NewReader(rq.body))
		t0 := time.Now()
		if rq.kind == kindCapacity {
			_, _ = s.svc.Capacity(hr, rq.cap) // outcome checked on the wire path
		} else {
			_, _ = s.svc.Predict(hr, rq.predict)
		}
		direct[i] = float64(time.Since(t0)) / 1e3
		rec := httptest.NewRecorder()
		t0 = time.Now()
		s.handler.ServeHTTP(rec, hr)
		recorded[i] = float64(time.Since(t0)) / 1e3
	}
	layer["serve.direct_us_p50"] = stats.Percentile(direct, 50)
	layer["serve.codec_us_p50"] = stats.Percentile(recorded, 50) - stats.Percentile(direct, 50)
	rep.Info["serve.handler_us_p50"] = stats.Percentile(s.handlerDur, 50)
}

// checkServedEqualsOffline is the repository's served == offline
// contract: one probe per architecture must be bit-identical to the
// prediction of a model built offline with hybrid.BuildServerMix.
func (s *serveInst) checkServedEqualsOffline(cfg serve.Config) {
	const buyPct = 10
	var buf bytes.Buffer
	for _, a := range cfg.Archs {
		n := math.Floor(knee(a))
		rq := newPredict(kindHybrid, serve.PredictRequest{Arch: a.Name, Clients: n, BuyPct: buyPct})
		ans, ok := s.roundTrip(&rq, &buf, 0, 0)
		sm, _, err := hybrid.BuildServerMix(hybrid.Config{
			DB: cfg.DB, Demands: cfg.Demands, PointsPerEquation: cfg.PointsPerEquation, LQN: cfg.LQN,
		}, a, buyPct/100.0)
		if err != nil || !ok || !ans.valid(kindHybrid) {
			s.e.addCheck("serve.served_equals_offline."+a.Name, false, "probe failed (offline build error: %v)", err)
			continue
		}
		want := sm.Predict(n)
		s.e.addCheck("serve.served_equals_offline."+a.Name,
			math.Float64bits(*ans.ResponseTimeS) == math.Float64bits(want),
			"served %v, offline %v", *ans.ResponseTimeS, want)
	}
}

// warm sends the given requests once, split over the clients, so the
// cold builds happen before the clock starts. Failures count as a check.
func (s *serveInst) warm(name string, reqs []serveReq) {
	var lists [serveClients][]serveReq
	for i, rq := range reqs {
		lists[i%serveClients] = append(lists[i%serveClients], rq)
	}
	replies, _ := s.send(lists, nil)
	bad := 0
	for c := range replies {
		for _, r := range replies[c] {
			if !r.ok {
				bad++
			}
		}
	}
	s.e.addCheck(name, bad == 0, "%d of %d warm-up requests failed", bad, len(reqs))
}

// warmBuyPcts are the mixes serve_warm keeps resident: with the three
// architectures, nine hybrid keys, each with its lqn and regress model.
var warmBuyPcts = []float64{0, 5, 10}

// setupServeWarm is the steady state the hybrid method promises: every
// model is resident, so socket, codec, cache hits and the batcher do all
// the work and builds do none. Mix: 55 % hybrid mean, 15 % percentile
// 0.9, 15 % capacity, 10 % method=lqn, 5 % method=regress.
func setupServeWarm(e *env) (instance, error) {
	cfg := serveConfig(e)
	newGen := func(r *rand.Rand) func() serveReq {
		return func() serveReq {
			a := cfg.Archs[r.Intn(len(cfg.Archs))]
			buy := warmBuyPcts[r.Intn(len(warmBuyPcts))]
			pr := serve.PredictRequest{Arch: a.Name, Clients: population(r, a), BuyPct: buy}
			switch p := r.Float64(); {
			case p < 0.55:
				return newPredict(kindHybrid, pr)
			case p < 0.70:
				pr.Percentile = 0.9
				return newPredict(kindPercentile, pr)
			case p < 0.85:
				cr := serve.CapacityRequest{Arch: a.Name, GoalRTS: 0.1 + 0.5*r.Float64(), BuyPct: buy}
				body, _ := json.Marshal(cr)
				return serveReq{kind: kindCapacity, path: "/v1/capacity", body: body, cap: cr}
			case p < 0.95:
				pr.Method = "lqn"
				return newPredict(kindLQN, pr)
			default:
				pr.Method = "regress"
				return newPredict(kindRegress, pr)
			}
		}
	}
	// 20 000 requests a client: about a second a unit on the 2-core box.
	s, err := newServeInst(e, cfg, e.scale(20000), newGen)
	if err != nil {
		return nil, err
	}
	var reqs []serveReq
	for _, a := range cfg.Archs {
		for _, buy := range warmBuyPcts {
			pr := serve.PredictRequest{Arch: a.Name, Clients: math.Floor(knee(a)), BuyPct: buy}
			reqs = append(reqs, newPredict(kindHybrid, pr))
			pr.Method = "regress"
			reqs = append(reqs, newPredict(kindRegress, pr))
			pr.Method = "lqn"
			// Each batch worker keeps its own solver state per key.
			for i := 0; i < 2*cfg.SolveWorkers; i++ {
				reqs = append(reqs, newPredict(kindLQN, pr))
			}
		}
	}
	s.warm("serve.warmup", reqs)
	s.checkServedEqualsOffline(cfg)
	return s, nil
}

// serve_churn's key space is 3 architectures × 22 buy mixes (0..21 %)
// against a 16-entry cache.
const (
	churnBuyMixes = 22
	churnCapacity = 16
	churnZipfS    = 1.1
)

// churnCounts is how often each popularity rank appears in a list of n
// requests drawn Zipf(churnZipfS): n·p(rank), rounded so the counts sum
// to n (largest remainders first).
func churnCounts(ranks, n int) []int {
	w := make([]float64, ranks)
	var sum float64
	for k := range w {
		w[k] = math.Pow(float64(1+k), -churnZipfS)
		sum += w[k]
	}
	counts, left := make([]int, ranks), n
	order := make([]int, ranks)
	for k := range w {
		w[k] *= float64(n) / sum
		counts[k] = int(w[k])
		left -= counts[k]
		order[k] = k
	}
	sort.SliceStable(order, func(i, j int) bool {
		return w[order[i]]-float64(counts[order[i]]) > w[order[j]]-float64(counts[order[j]])
	})
	for _, k := range order[:left] {
		counts[k]++
	}
	return counts
}

// setupServeChurn uses the same serve layer the other way round: a
// cache a quarter the size of the Zipf(1.1) key space, so cache writes,
// evictions, singleflight and build admission work beside serve_warm's
// reads, and hybrid/lqn/trade build cost sits on the blocking path.
//
// Each client's list holds every key exactly as often as Zipf(1.1)
// expects, in seeded random order, and popularity ranks cycle through
// the architectures: a build costs four times more on AppServVF than on
// AppServS, so drawing keys independently would let the seed decide how
// much work a unit is.
func setupServeChurn(e *env) (instance, error) {
	cfg := serveConfig(e)
	cfg.CacheCapacity = churnCapacity
	type key struct {
		arch workload.ServerArch
		buy  float64
	}
	// Which buy mixes are hot depends on the seed.
	mixes := rand.New(rand.NewSource(e.opt.seed)).Perm(churnBuyMixes)
	var keys []key // by popularity rank
	for _, b := range mixes {
		for _, a := range cfg.Archs {
			keys = append(keys, key{a, float64(b)})
		}
	}
	// 200 requests a client: about two seconds a unit.
	perClient := e.scale(200)
	counts := churnCounts(len(keys), perClient)
	newGen := func(r *rand.Rand) func() serveReq {
		var list []key
		return func() serveReq {
			if len(list) == 0 {
				for rank, n := range counts {
					for i := 0; i < n; i++ {
						list = append(list, keys[rank])
					}
				}
				r.Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
			}
			k := list[len(list)-1]
			list = list[:len(list)-1]
			return newPredict(kindHybrid, serve.PredictRequest{Arch: k.arch.Name, Clients: population(r, k.arch), BuyPct: k.buy})
		}
	}
	s, err := newServeInst(e, cfg, perClient, newGen)
	if err != nil {
		return nil, err
	}
	// Fill the cache with the hottest keys so the first unit starts in
	// the steady state, not on an empty cache.
	var reqs []serveReq
	for _, k := range keys[:churnCapacity] {
		reqs = append(reqs, newPredict(kindHybrid, serve.PredictRequest{Arch: k.arch.Name, Clients: math.Floor(knee(k.arch)), BuyPct: k.buy}))
	}
	s.warm("serve.warmup", reqs)
	s.checkServedEqualsOffline(cfg)
	return s, nil
}
