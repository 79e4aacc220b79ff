// Package serve is the long-lived prediction service: the paper's
// predictors packaged behind a concurrent HTTP/JSON API and engineered
// as a serving hot path. Batch artifacts — a hybrid model built once,
// queried offline — become cached, amortised online models, the regime
// Witt et al. (arXiv:1805.11877) argue performance prediction must
// reach to pay for itself.
//
// The serving architecture has four load-bearing pieces:
//
//   - one per-(method, architecture, mix) model store: finished hybrid
//     and regress models live in one bounded sessioncache.LRU, and a
//     parallel.Memo singleflight collapses a thundering herd of cold
//     requests for one key into exactly one build (stampede control);
//   - what a key takes from the simulator is measured once, when first
//     needed, and kept apart from the models: regress's eight training
//     samples by the key's first build, hybrid's calibrated percentile
//     scale by the key's first percentile request (a mean, a capacity
//     or an allocation never reads it). That evidence is a few bytes
//     that cost milliseconds, the model around it microseconds of
//     solves and fits. The LRU evicts assembled models; the evidence
//     stays in a per-key table for the life of the Service, so a key
//     pays the paper's start-up delay (§8.5) once and every rebuild is
//     assembly alone. No knob bounds that table because the key does:
//     mixes are quantised to 0.1%, so it cannot pass architectures ×
//     1 001 keys a method (about 2.4 MB for the case-study catalogue);
//   - async build workers: cold builds of every method and percentile
//     calibrations run under one bounded worker semaphore, so build
//     cost is paid off the steady-state request path and bounded in
//     concurrency;
//   - admission control: one slot-and-queue controller in front of
//     builds and of exact layered solves alike (a layered query solves
//     on its own request goroutine, holding one of SolveWorkers solver
//     slots whose warm state carries over between the slot's solves),
//     per-request deadlines, and typed backpressure — overload degrades
//     to fast 429s with Retry-After, never to collapse.
//
// Every stage is wired into the obs registry (per-endpoint latency
// histograms, cache traffic, queue depths and high-water marks, the
// simulator runs and simulated seconds the keys paid for); the
// benchmark's serve_warm and serve_churn workloads drive the service
// end to end and report those counters as serve.* metrics.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"perfpred/internal/lqn"
	"perfpred/internal/obs"
	"perfpred/internal/parallel"
	"perfpred/internal/rm"
	"perfpred/internal/rtdist"
	"perfpred/internal/sessioncache"
	"perfpred/internal/workload"
)

// Typed serving errors: the admission controller's vocabulary.
var (
	// ErrOverloaded means a bounded queue was full; the client should
	// back off and retry (HTTP 429 + Retry-After).
	ErrOverloaded = errors.New("serve: overloaded, retry later")
	// ErrShuttingDown means the service stopped accepting work (503).
	ErrShuttingDown = errors.New("serve: shutting down")
)

// isContextErr reports whether err is an expired deadline or a cancelled
// request (504 either way).
func isContextErr(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

// badRequestError marks client mistakes (unknown architecture, bad
// parameters) so the handler maps them to 400 instead of 500.
type badRequestError struct{ msg string }

func (e *badRequestError) Error() string { return e.msg }

// Config assembles a Service.
type Config struct {
	// Archs are the servable architectures; requests name them by
	// ServerArch.Name.
	Archs []workload.ServerArch
	// DB is the shared database server behind every architecture.
	DB workload.DBServer
	// Demands are the calibrated per-request-type demands on the
	// reference architecture.
	Demands map[workload.RequestType]workload.Demand
	// LQN tunes every layered solve (builds, method=lqn solves,
	// searches).
	LQN lqn.Options
	// PointsPerEquation is the hybrid build fidelity (0 selects the
	// paper's 4).
	PointsPerEquation int

	// CacheCapacity bounds the model store in entries, all methods
	// together; 0 = unbounded. It bounds assembled models only: what a
	// key measured on the simulator is kept per key for the life of the
	// Service, so an evicted key rebuilds in microseconds.
	CacheCapacity int

	// LaplaceB fixes the §7.1 percentile scale in seconds. 0 means
	// calibrate per (architecture, mix) from a fixed-seed simulator
	// run on the key's first percentile request — a slower first
	// percentile, honest tails; the calibrated scale outlives eviction.
	LaplaceB float64
	// CalibrationSimSeconds is the percentile calibration run's
	// simulated horizon (default 40; a quarter of it is warm-up).
	CalibrationSimSeconds float64

	// RegressSimSeconds is each regress training run's simulated
	// horizon (default 20; a quarter of it is warm-up). The whole
	// training set costs regressTrainSamples × 1.25 × this in simulated
	// seconds — the knob that keeps the tier cheap.
	RegressSimSeconds float64

	// BuildWorkers bounds concurrent cold builds, all methods together,
	// and percentile calibrations (default 2).
	BuildWorkers int
	// MaxQueuedBuilds bounds builds and calibrations waiting for a
	// worker slot beyond the running ones; more cold keys than this
	// reject with 429 (default 8).
	MaxQueuedBuilds int
	// SolveWorkers bounds concurrent method=lqn solves (default
	// GOMAXPROCS); each solver slot keeps warm solver state for the
	// keys it solved last.
	SolveWorkers int
}

// Serving parameters with one value in use.
const (
	// calibrationSeed seeds the calibration and regress training runs.
	calibrationSeed = 1
	// regressTrainSamples is how many simulator measurements the cheap
	// regress tier trains on per (architecture, mix); regressDegree its
	// polynomial degree (the cheap tier favours robustness over fit).
	regressTrainSamples = 8
	regressDegree       = 2
	// maxQueuedSolves bounds layered solves waiting for a solver slot
	// beyond the running ones; sweepsPerSlot bounds the keys whose warm
	// solver state one slot keeps.
	maxQueuedSolves = 256
	sweepsPerSlot   = 32
	// defaultDeadline applies to requests that carry no deadline_ms;
	// maxDeadlineMS caps the ones that do.
	defaultDeadline = 5 * time.Second
	maxDeadlineMS   = 60_000
	// retryAfter is the backoff hint, in seconds, on 429 responses.
	retryAfter = "1"
)

func (c Config) withDefaults() Config {
	if c.CalibrationSimSeconds == 0 {
		c.CalibrationSimSeconds = 40
	}
	positiveOr(&c.RegressSimSeconds, 20)
	positiveOr(&c.BuildWorkers, 2)
	positiveOr(&c.MaxQueuedBuilds, 8)
	positiveOr(&c.SolveWorkers, runtime.GOMAXPROCS(0))
	return c
}

// positiveOr replaces a knob left at zero (or below) with its default.
func positiveOr[T int | float64](v *T, def T) {
	if *v <= 0 {
		*v = def
	}
}

// Service is the long-lived prediction service. Create with New,
// mount Handler on an HTTP server, and Close after the HTTP server
// has drained. Every request runs on its caller's goroutine, so one
// accepted before Close still gets its answer.
type Service struct {
	cfg   Config
	archs map[string]workload.ServerArch
	// store holds every method's cached models behind one LRU, one
	// singleflight and one build admission controller.
	store *modelStore
	// evidence keeps what each key took from the simulator, so a
	// rebuild after eviction is solves and fits alone and a rebuilt
	// hybrid key's next percentile runs no simulation.
	// Nothing evicts it and no knob bounds it, because the key does:
	// makeKey quantises the mix to 1 001 values, so the table tops out
	// at architectures × 1 001 keys a simulator-backed method — for the
	// case-study catalogue 3 003 scales of 16 bytes and 3 003 sets of
	// eight samples, about 2.4 MB with the map around them.
	evidence parallel.Memo[modelKey, evidence]
	// solves admits method=lqn solves. A slot is a solver's warm state:
	// the least-recently-solved keys drop theirs and rebuild on next
	// use, so a key churn cannot pin unbounded models.
	solves *admission[*sessioncache.LRU[modelKey, *lqn.TradeSweep]]

	closed atomic.Bool
}

// New validates the configuration.
func New(cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Archs) == 0 {
		return nil, errors.New("serve: no architectures configured")
	}
	if err := cfg.DB.Validate(); err != nil {
		return nil, err
	}
	if len(cfg.Demands) == 0 {
		return nil, errors.New("serve: no demands configured")
	}
	s := &Service{cfg: cfg, archs: make(map[string]workload.ServerArch, len(cfg.Archs))}
	for _, a := range cfg.Archs {
		if err := a.Validate(); err != nil {
			return nil, err
		}
		if _, dup := s.archs[a.Name]; dup {
			return nil, fmt.Errorf("serve: duplicate architecture %q", a.Name)
		}
		s.archs[a.Name] = a
	}
	s.store = newModelStore(cfg.CacheCapacity, cfg.BuildWorkers, cfg.MaxQueuedBuilds, s.buildEntry)
	slots := make([]*sessioncache.LRU[modelKey, *lqn.TradeSweep], cfg.SolveWorkers)
	for i := range slots {
		slots[i] = sessioncache.NewLRU[modelKey, *lqn.TradeSweep](sweepsPerSlot)
	}
	s.solves = newAdmission(serveSolveQueueDepth, serveSolveQueueHighWater, slots, maxQueuedSolves)
	return s, nil
}

// Close marks the service closed: requests that arrive after it are
// refused with ErrShuttingDown, while those already accepted run to
// their answer.
func (s *Service) Close() {
	s.closed.Store(true)
}

// withSweep runs fn in a solver slot on the slot's warm solving context
// for key — the key's trade model on a retained warm-started solver —
// building that context on the slot's first solve of the key.
func (s *Service) withSweep(ctx context.Context, key modelKey, fn func(*lqn.TradeSweep) error) error {
	sweeps, err := s.solves.acquire(ctx)
	if err != nil {
		return err
	}
	defer s.solves.release(sweeps)
	sw, ok := sweeps.Get(key)
	if !ok {
		arch, err := s.arch(key.arch)
		if err != nil {
			return err
		}
		if sw, err = lqn.NewTradeSweep(arch, s.cfg.DB, s.cfg.Demands, workload.MixLoad(1, key.buyFrac()), s.cfg.LQN); err != nil {
			return err
		}
		sweeps.Put(key, sw)
	}
	return fn(sw)
}

// ---- request/response schema ----

// PredictRequest asks for a response-time prediction.
type PredictRequest struct {
	Arch    string  `json:"arch"`
	Clients float64 `json:"clients"`
	// BuyPct is the buy percentage of the mix (0–100; 0 = typical
	// all-browse workload).
	BuyPct float64 `json:"buy_pct"`
	// Percentile, in (0,1), converts the mean prediction via the §7.1
	// distributions; 0 predicts the mean.
	Percentile float64 `json:"percentile"`
	// Method names a row of the method table (see methods); empty
	// selects hybrid.
	Method string `json:"method"`
	// DeadlineMS overrides the service's default deadline.
	DeadlineMS int64 `json:"deadline_ms"`
}

// PredictResponse is the answer.
type PredictResponse struct {
	Arch          string  `json:"arch"`
	Clients       float64 `json:"clients"`
	BuyPct        float64 `json:"buy_pct"`
	Method        string  `json:"method"`
	Percentile    float64 `json:"percentile,omitempty"`
	ResponseTimeS float64 `json:"response_time_s"`
	// Cold reports whether this request waited on a model build.
	Cold bool `json:"cold"`
	// BuildMS is the cold build's wall-clock cost (0 on warm hits).
	BuildMS float64 `json:"build_ms,omitempty"`
}

// CapacityRequest asks for the largest client population an
// architecture holds within a response-time goal.
type CapacityRequest struct {
	Arch       string  `json:"arch"`
	GoalRTS    float64 `json:"goal_rt_s"`
	BuyPct     float64 `json:"buy_pct"`
	Method     string  `json:"method"`
	DeadlineMS int64   `json:"deadline_ms"`
}

// CapacityResponse is the answer.
type CapacityResponse struct {
	Arch        string  `json:"arch"`
	GoalRTS     float64 `json:"goal_rt_s"`
	BuyPct      float64 `json:"buy_pct"`
	Method      string  `json:"method"`
	MaxClients  float64 `json:"max_clients"`
	Evaluations int     `json:"evaluations,omitempty"`
	Cold        bool    `json:"cold"`
	BuildMS     float64 `json:"build_ms,omitempty"`
}

// AllocateRequest runs Algorithm 1 over the cached models.
type AllocateRequest struct {
	Classes []AllocClass  `json:"classes"`
	Servers []AllocServer `json:"servers"`
	Slack   float64       `json:"slack"`
	BuyPct  float64       `json:"buy_pct"`
	// AllowDeflation permits slack < 1 (the §9 sweep's knob).
	AllowDeflation bool  `json:"allow_deflation"`
	DeadlineMS     int64 `json:"deadline_ms"`
}

// AllocClass mirrors rm.Class.
type AllocClass struct {
	Name    string  `json:"name"`
	GoalRTS float64 `json:"goal_rt_s"`
	Clients int     `json:"clients"`
}

// AllocServer mirrors rm.Server.
type AllocServer struct {
	Name  string  `json:"name"`
	Arch  string  `json:"arch"`
	Power float64 `json:"power"`
}

// AllocateResponse mirrors rm.Plan.
type AllocateResponse struct {
	Allocations     []Allocation   `json:"allocations"`
	RejectedPlanned map[string]int `json:"rejected_planned,omitempty"`
	Slack           float64        `json:"slack"`
	UsagePct        float64        `json:"usage_pct"`
}

// Allocation mirrors rm.Allocation.
type Allocation struct {
	Server  string `json:"server"`
	Class   string `json:"class"`
	Clients int    `json:"clients"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// ---- HTTP plumbing ----

// Handler returns the service's HTTP mux:
//
//	GET|POST /v1/predict   response-time prediction
//	GET|POST /v1/capacity  max-clients query
//	POST     /v1/allocate  Algorithm 1 allocation plan
//	GET      /healthz      liveness + configured architectures
//
// Mount the obs Handler alongside it for /metrics and /debug.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/predict", handle(servePredictRequests, servePredictSeconds, s.Predict))
	mux.HandleFunc("/v1/capacity", handle(serveCapacityRequests, serveCapacitySeconds, s.Capacity))
	mux.HandleFunc("/v1/allocate", handle(serveAllocateRequests, serveAllocateSeconds, s.allocate))
	mux.HandleFunc("/healthz", s.handleHealth)
	return mux
}

// requestBuckets bound the request latency histograms. Request
// latencies sit well under DurationBuckets' 100µs floor on a warm
// cache, so they get a finer bottom end: 10µs up to 10s.
var requestBuckets = []float64{1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1, 3, 10}

// The HTTP layer's metrics: per-endpoint request counts and latencies,
// requests in flight, and replies that were not a success of the
// caller's own making.
var (
	servePredictRequests  = obs.DeclareCounter("serve_predict_requests")
	serveCapacityRequests = obs.DeclareCounter("serve_capacity_requests")
	serveAllocateRequests = obs.DeclareCounter("serve_allocate_requests")
	servePredictSeconds   = obs.DeclareHistogram("serve_predict_seconds", requestBuckets...)
	serveCapacitySeconds  = obs.DeclareHistogram("serve_capacity_seconds", requestBuckets...)
	serveAllocateSeconds  = obs.DeclareHistogram("serve_allocate_seconds", requestBuckets...)
	serveInflightRequests = obs.DeclareGauge("serve_inflight_requests")
	serveDeadlineExpired  = obs.DeclareCounter("serve_deadline_expired") // 504s
	serveErrors           = obs.DeclareCounter("serve_errors")           // 500s
)

// handle wraps one endpoint's in-process entry point in the shared HTTP
// bookkeeping: request count, in-flight gauge, latency histogram,
// decoding and typed error mapping.
func handle[Req, Resp any](requests *obs.CounterVar, seconds *obs.HistogramVar, call func(*http.Request, Req) (*Resp, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		requests.Inc()
		// One registry sees the request in and out, whatever Bind does
		// while it runs.
		inflight, latency := serveInflightRequests.Metric(), seconds.Metric()
		inflight.Add(1)
		start := time.Now()
		defer func() {
			inflight.Add(-1)
			latency.Observe(time.Since(start).Seconds())
		}()

		var req Req
		if err := decodeInto(r, &req); err != nil {
			writeError(w, err)
			return
		}
		resp, err := call(r, req)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	}
}

// requestCtx applies the per-request deadline.
func requestCtx(r *http.Request, deadlineMS int64) (context.Context, context.CancelFunc) {
	d := defaultDeadline
	if deadlineMS > 0 {
		d = time.Duration(min(deadlineMS, maxDeadlineMS)) * time.Millisecond
	}
	return context.WithTimeout(r.Context(), d)
}

// writeJSON writes v with the given status. It encodes before it sends
// the header, so a value encoding/json refuses (a non-finite number) is
// a 500 with an error body, never a bare 200.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		serveErrors.Inc()
		status = http.StatusInternalServerError
		body, _ = json.Marshal(errorResponse{Error: "encoding response: " + err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(append(body, '\n'))
}

// writeError maps the service's typed errors onto status codes: 400
// for client mistakes, 429 + Retry-After for backpressure, 503 while
// shutting down, 504 for expired deadlines, 500 otherwise.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	var bad *badRequestError
	switch {
	case errors.As(err, &bad):
		status = http.StatusBadRequest
	case errors.Is(err, ErrOverloaded):
		status = http.StatusTooManyRequests
		w.Header().Set("Retry-After", retryAfter)
	case errors.Is(err, ErrShuttingDown):
		status = http.StatusServiceUnavailable
	case isContextErr(err):
		status = http.StatusGatewayTimeout
		serveDeadlineExpired.Inc()
	default:
		serveErrors.Inc()
	}
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

// queryParams are the numeric GET parameters, named like their JSON
// tags, in the order decodeInto parses them — fixed, so a request with
// several malformed values always names the same one.
var queryParams = [...]string{"clients", "goal_rt_s", "buy_pct", "percentile", "deadline_ms"}

// decodeInto parses a request from a JSON body (POST) or, for predict
// and capacity, from query parameters (any other verb). dst is a fresh
// zero request.
func decodeInto(r *http.Request, dst any) error {
	if r.Method == http.MethodPost {
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(dst); err != nil {
			return &badRequestError{msg: "bad JSON body: " + err.Error()}
		}
		return nil
	}
	// into binds queryParams to the request's fields; nil = not one of
	// this request's, ignored as any unknown parameter is.
	var (
		arch, method *string
		deadlineMS   *int64
		deadline     float64
		into         [len(queryParams)]*float64
	)
	switch d := dst.(type) {
	case *PredictRequest:
		arch, method, deadlineMS = &d.Arch, &d.Method, &d.DeadlineMS
		into = [...]*float64{&d.Clients, nil, &d.BuyPct, &d.Percentile, &deadline}
	case *CapacityRequest:
		arch, method, deadlineMS = &d.Arch, &d.Method, &d.DeadlineMS
		into = [...]*float64{nil, &d.GoalRTS, &d.BuyPct, nil, &deadline}
	case *AllocateRequest:
		return &badRequestError{msg: "allocate requires POST"}
	}
	q := r.URL.Query()
	*arch, *method = q.Get("arch"), q.Get("method")
	for i, name := range queryParams {
		v := q.Get(name)
		if v == "" || into[i] == nil {
			continue
		}
		// ParseFloat accepts NaN and Inf, and no range check holds for NaN.
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
			return &badRequestError{msg: "bad " + name + ": " + v}
		}
		*into[i] = f
	}
	*deadlineMS = int64(deadline)
	return nil
}

func validateCommon(arch string, buyPct float64) error {
	if arch == "" {
		return &badRequestError{msg: "missing arch"}
	}
	if buyPct < 0 || buyPct > 100 {
		return &badRequestError{msg: fmt.Sprintf("buy_pct %v outside [0,100]", buyPct)}
	}
	return nil
}

// answerable rejects a finite question so large that the model's answer
// overflows: JSON cannot carry the answer, and the mistake is the
// client's.
func answerable(param string, asked, answer float64) error {
	if math.IsNaN(answer) || math.IsInf(answer, 0) {
		return beyondRange(param, asked)
	}
	return nil
}

func beyondRange(param string, asked float64) error {
	return &badRequestError{msg: fmt.Sprintf("%s %v is beyond the model's range", param, asked)}
}

// ---- endpoints ----

// method is one row of the method table: how a predictor family gets
// the model that answers the paper's two questions — response time at N
// clients, max clients under a goal (§8.2) — as an rm.Predictor.
type method struct {
	// build is the cold path of the method's store tier; nil for a
	// method whose questions are exact layered solves.
	build func(s *Service, key modelKey, arch workload.ServerArch) (*modelEntry, error)
	// meansOnly rejects percentile requests before any build is paid.
	meansOnly bool
}

// methods is the one method table Predict, Capacity and allocate look
// up: "hybrid" (default; cached closed-form model), "lqn" (exact
// layered solve in a solver slot) and "regress"
// (cheap-tier black-box regression, means only).
var methods = map[string]method{
	"hybrid":  {build: (*Service).buildHybrid},
	"regress": {build: (*Service).buildRegress, meansOnly: true},
	"lqn":     {},
}

// methodFor resolves a request's method name in place (empty selects
// hybrid) to its table row.
func methodFor(name *string) (method, error) {
	if *name == "" {
		*name = "hybrid"
	}
	mt, ok := methods[*name]
	if !ok {
		return mt, &badRequestError{msg: "unknown method " + *name + " (want hybrid, lqn or regress)"}
	}
	return mt, nil
}

// query answers one request's questions as an rm.Predictor, by the
// request's method under its deadline and mix. What the answers cost —
// a cold build waited on, its wall time, the solves a capacity search
// spent — accumulates for the reply.
type query struct {
	s      *Service
	ctx    context.Context
	method string
	buyPct float64

	cold    bool
	buildMS float64
	evals   int
}

// model returns the method's predictor for one architecture and, when
// the method has a store tier, the cached entry behind it.
func (q *query) model(arch string) (rm.Predictor, *modelEntry, error) {
	key := makeKey(q.method, arch, q.buyPct)
	if methods[q.method].build == nil {
		return solvePredictor{q, key}, nil, nil
	}
	e, cold, err := q.s.store.get(q.ctx, key)
	if err != nil {
		return nil, nil, err
	}
	q.cold = cold
	if cold {
		q.buildMS = float64(e.buildWall) / float64(time.Millisecond)
	}
	return e.pred, e, nil
}

func (q *query) Predict(arch string, n float64) (float64, error) {
	pred, _, err := q.model(arch)
	if err != nil {
		return 0, err
	}
	return pred.Predict(arch, n)
}

func (q *query) MaxClients(arch string, goalRT float64) (float64, error) {
	pred, _, err := q.model(arch)
	if err != nil {
		return 0, err
	}
	return pred.MaxClients(arch, goalRT)
}

// solvePredictor answers a query's questions about one key with exact
// layered solves on the request's own goroutine.
type solvePredictor struct {
	q   *query
	key modelKey
}

// maxSolveClients is the largest population a layered solve is asked
// about: the capacity search's limit, and what Predict refuses beyond —
// int(1e19) wraps negative, and one client would answer for it.
const maxSolveClients = 1 << 20

// serveBatchSolves counts method=lqn solves, one per probe of a
// capacity search.
var serveBatchSolves = obs.DeclareCounter("serve_batch_solves")

func (p solvePredictor) Predict(_ string, n float64) (float64, error) {
	if !(n <= maxSolveClients) {
		return 0, beyondRange("clients", n)
	}
	var rt float64
	err := p.q.s.withSweep(p.q.ctx, p.key, func(sw *lqn.TradeSweep) error {
		res, err := sw.Solve(workload.MixLoad(max(1, int(n+0.5)), p.key.buyFrac()))
		if err != nil {
			return err
		}
		serveBatchSolves.Inc()
		rt = res.MeanResponseTime()
		return nil
	})
	return rt, err
}

// MaxClients is the §8.2 search generalised to a fixed mix (each probe
// splits its total population exactly as Predict does); the sweep runs
// it on a fresh solver, so the answer never depends on what the slot
// happened to solve before it.
func (p solvePredictor) MaxClients(_ string, goalRT float64) (float64, error) {
	var n int
	err := p.q.s.withSweep(p.q.ctx, p.key, func(sw *lqn.TradeSweep) error {
		buyFrac := p.key.buyFrac()
		var err error
		n, p.q.evals, err = sw.MaxClients(goalRT, maxSolveClients, func(n int) workload.Workload {
			return workload.MixLoad(n, buyFrac)
		})
		serveBatchSolves.Add(uint64(p.q.evals))
		return err
	})
	return float64(n), err
}

// Predict answers a PredictRequest; it is exported so in-process
// callers (tests, load generators) can bypass HTTP decoding while
// exercising the identical serving path.
func (s *Service) Predict(r *http.Request, req PredictRequest) (*PredictResponse, error) {
	if s.closed.Load() {
		return nil, ErrShuttingDown
	}
	if err := validateCommon(req.Arch, req.BuyPct); err != nil {
		return nil, err
	}
	if req.Clients <= 0 {
		return nil, &badRequestError{msg: "clients must be positive"}
	}
	if req.Percentile < 0 || req.Percentile >= 1 {
		return nil, &badRequestError{msg: fmt.Sprintf("percentile %v outside [0,1)", req.Percentile)}
	}
	mt, err := methodFor(&req.Method)
	if err != nil {
		return nil, err
	}
	if mt.meansOnly && req.Percentile > 0 {
		return nil, &badRequestError{msg: "method " + req.Method + " predicts means only (no percentile support)"}
	}
	ctx, cancel := requestCtx(r, req.DeadlineMS)
	defer cancel()

	q := &query{s: s, ctx: ctx, method: req.Method, buyPct: req.BuyPct}
	pred, e, err := q.model(req.Arch)
	if err != nil {
		return nil, err
	}
	rt, err := pred.Predict(req.Arch, req.Clients)
	if err != nil {
		return nil, err
	}
	if req.Percentile > 0 {
		hk := makeKey("hybrid", req.Arch, req.BuyPct)
		if e == nil {
			// The layered solver predicts only means; the conversion
			// borrows the cached hybrid entry's saturation boundary and
			// Laplace scale, exactly as the offline comparison does.
			// Waiting on that build marks the reply cold, no more.
			var cold bool
			if e, cold, err = s.store.get(ctx, hk); err != nil {
				return nil, err
			}
			q.cold = cold
		}
		ev, cold, err := s.laplaceScale(ctx, hk, e.sm)
		if err != nil {
			return nil, err
		}
		if cold {
			q.cold = true
			q.buildMS += float64(ev.calibration) / float64(time.Millisecond)
		}
		if rt, err = rtdist.PercentileFromMean(rt, e.sm.Saturated(req.Clients), ev.laplaceB, req.Percentile); err != nil {
			return nil, err
		}
	}
	if err := answerable("clients", req.Clients, rt); err != nil {
		return nil, err
	}
	return &PredictResponse{
		Arch: req.Arch, Clients: req.Clients, BuyPct: req.BuyPct,
		Method: req.Method, Percentile: req.Percentile,
		ResponseTimeS: rt, Cold: q.cold, BuildMS: q.buildMS,
	}, nil
}

// Capacity answers a CapacityRequest (see Predict for the in-process
// contract).
func (s *Service) Capacity(r *http.Request, req CapacityRequest) (*CapacityResponse, error) {
	if s.closed.Load() {
		return nil, ErrShuttingDown
	}
	if err := validateCommon(req.Arch, req.BuyPct); err != nil {
		return nil, err
	}
	if req.GoalRTS <= 0 {
		return nil, &badRequestError{msg: "goal_rt_s must be positive"}
	}
	if _, err := methodFor(&req.Method); err != nil {
		return nil, err
	}
	ctx, cancel := requestCtx(r, req.DeadlineMS)
	defer cancel()

	q := &query{s: s, ctx: ctx, method: req.Method, buyPct: req.BuyPct}
	n, err := q.MaxClients(req.Arch, req.GoalRTS)
	if err != nil {
		return nil, err
	}
	if err := answerable("goal_rt_s", req.GoalRTS, n); err != nil {
		return nil, err
	}
	return &CapacityResponse{
		Arch: req.Arch, GoalRTS: req.GoalRTS, BuyPct: req.BuyPct, Method: req.Method,
		MaxClients: n, Evaluations: q.evals, Cold: q.cold, BuildMS: q.buildMS,
	}, nil
}

// allocate answers an AllocateRequest: Algorithm 1 over the cached
// per-(architecture, mix) models.
func (s *Service) allocate(r *http.Request, req AllocateRequest) (*AllocateResponse, error) {
	if s.closed.Load() {
		return nil, ErrShuttingDown
	}
	if len(req.Classes) == 0 || len(req.Servers) == 0 {
		return nil, &badRequestError{msg: "allocate needs classes and servers"}
	}
	if req.BuyPct < 0 || req.BuyPct > 100 {
		return nil, &badRequestError{msg: fmt.Sprintf("buy_pct %v outside [0,100]", req.BuyPct)}
	}
	ctx, cancel := requestCtx(r, req.DeadlineMS)
	defer cancel()

	classes := make([]rm.Class, len(req.Classes))
	for i, c := range req.Classes {
		classes[i] = rm.Class{Name: c.Name, GoalRT: c.GoalRTS, Clients: c.Clients}
	}
	servers := make([]rm.Server, len(req.Servers))
	for i, sv := range req.Servers {
		if _, err := s.arch(sv.Arch); err != nil {
			return nil, err
		}
		servers[i] = rm.Server{Name: sv.Name, Arch: sv.Arch, Power: sv.Power}
	}
	pred := &query{s: s, ctx: ctx, method: "hybrid", buyPct: req.BuyPct}
	plan, err := rm.Allocate(classes, servers, pred, req.Slack, rm.Options{AllowDeflation: req.AllowDeflation})
	if err != nil {
		// Distinguish operational failures (overload, deadline) from
		// rm's own validation errors, which are the client's fault.
		if errors.Is(err, ErrOverloaded) || errors.Is(err, ErrShuttingDown) || isContextErr(err) {
			return nil, err
		}
		return nil, &badRequestError{msg: err.Error()}
	}
	resp := &AllocateResponse{Slack: plan.Slack, UsagePct: plan.UsagePct, RejectedPlanned: plan.RejectedPlanned}
	for _, a := range plan.Allocations {
		resp.Allocations = append(resp.Allocations, Allocation{Server: a.Server, Class: a.Class, Clients: a.Clients})
	}
	return resp, nil
}

func (s *Service) handleHealth(w http.ResponseWriter, _ *http.Request) {
	names := make([]string, 0, len(s.archs))
	for _, a := range s.cfg.Archs {
		names = append(names, a.Name)
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "archs": names})
}
