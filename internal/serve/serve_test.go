package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"perfpred/internal/hybrid"
	"perfpred/internal/lqn"
	"perfpred/internal/obs"
	"perfpred/internal/regress"
	"perfpred/internal/rm"
	"perfpred/internal/rtdist"
	"perfpred/internal/trade"
	"perfpred/internal/workload"
)

// testLaplaceB pins the percentile scale so tests skip the simulator
// calibration a production cold build pays for.
const testLaplaceB = 0.05

func testConfig() Config {
	return Config{
		Archs:    workload.CaseStudyServers(),
		DB:       workload.CaseStudyDB(),
		Demands:  workload.CaseStudyDemands(),
		LaplaceB: testLaplaceB,
	}
}

func newTestService(t *testing.T, mutate func(*Config)) *Service {
	t.Helper()
	cfg := testConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func newTestServer(t *testing.T, mutate func(*Config)) (*Service, *httptest.Server) {
	t.Helper()
	s := newTestService(t, mutate)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return s, srv
}

// getJSON issues a request and decodes the body; it returns the status
// so error-path tests can assert on it.
func getJSON(t *testing.T, client *http.Client, url string, out any) int {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	} else {
		_, _ = io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode
}

func postJSON(t *testing.T, client *http.Client, url string, body, out any) int {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding POST %s: %v", url, err)
		}
	} else {
		_, _ = io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode
}

// TestServedHybridMatchesOffline is the round-trip equality check: a
// prediction served over HTTP/JSON must be bit-identical to the same
// query answered by the offline hybrid stack (Go's JSON float encoding
// round-trips float64 exactly, so nothing is lost on the wire).
func TestServedHybridMatchesOffline(t *testing.T) {
	_, srv := newTestServer(t, nil)
	client := srv.Client()

	offline := func(arch workload.ServerArch, buyFrac float64) *hybrid.Config {
		return &hybrid.Config{DB: workload.CaseStudyDB(), Demands: workload.CaseStudyDemands()}
	}
	for _, tc := range []struct {
		arch    workload.ServerArch
		buyPct  float64
		clients float64
		pct     float64
	}{
		{workload.AppServF(), 0, 500, 0},
		{workload.AppServF(), 0, 1800, 0.9},
		{workload.AppServS(), 10, 400, 0},
		{workload.AppServVF(), 25.5, 2500, 0.95},
	} {
		sm, _, err := hybrid.BuildServerMix(*offline(tc.arch, tc.buyPct/100), tc.arch, tc.buyPct/100)
		if err != nil {
			t.Fatal(err)
		}
		want := sm.Predict(tc.clients)
		if tc.pct > 0 {
			want, err = sm.PredictPercentile(tc.clients, tc.pct, testLaplaceB)
			if err != nil {
				t.Fatal(err)
			}
		}
		var got PredictResponse
		url := fmt.Sprintf("%s/v1/predict?arch=%s&clients=%v&buy_pct=%v&percentile=%v",
			srv.URL, tc.arch.Name, tc.clients, tc.buyPct, tc.pct)
		if code := getJSON(t, client, url, &got); code != http.StatusOK {
			t.Fatalf("%s: status %d", url, code)
		}
		if got.ResponseTimeS != want {
			t.Fatalf("%s buy %v%% n=%v p=%v: served %v, offline %v",
				tc.arch.Name, tc.buyPct, tc.clients, tc.pct, got.ResponseTimeS, want)
		}

		// Capacity inverts the same model: exact equality again.
		goal := 2.5 * sm.Predict(1)
		wantCap, err := sm.MaxClients(goal)
		if err != nil {
			t.Fatal(err)
		}
		var capResp CapacityResponse
		url = fmt.Sprintf("%s/v1/capacity?arch=%s&goal_rt_s=%v&buy_pct=%v",
			srv.URL, tc.arch.Name, goal, tc.buyPct)
		if code := getJSON(t, client, url, &capResp); code != http.StatusOK {
			t.Fatalf("%s: status %d", url, code)
		}
		if capResp.MaxClients != wantCap {
			t.Fatalf("%s capacity: served %v, offline %v", tc.arch.Name, capResp.MaxClients, wantCap)
		}
	}
}

// The cheap regress tier must serve exactly what an identically
// configured offline training run fits: the service is a cache in
// front of a deterministic build, nothing more. Warm repeats are
// byte-identical and free; percentile requests are a client mistake.
func TestServedRegressTierMatchesOffline(t *testing.T) {
	_, srv := newTestServer(t, func(c *Config) {
		c.RegressSimSeconds = 4 // short training sims keep the test fast
	})
	client := srv.Client()
	arch := workload.AppServS()

	offline, err := regress.Train(regress.TrainConfig{
		Archs:         []workload.ServerArch{arch},
		BuyFracs:      []float64{0},
		SamplesPerMix: 8,
		Seed:          1, // the service's calibrationSeed
		Opt:           trade.MeasureOptions{WarmUp: 1, Duration: 4},
		Fit:           regress.FitConfig{Degree: 2},
	})
	if err != nil {
		t.Fatal(err)
	}

	var first PredictResponse
	url := fmt.Sprintf("%s/v1/predict?arch=%s&clients=300&method=regress", srv.URL, arch.Name)
	if code := getJSON(t, client, url, &first); code != http.StatusOK {
		t.Fatalf("%s: status %d", url, code)
	}
	if !first.Cold {
		t.Error("first regress request did not report a cold build")
	}
	want, err := offline.Predict(arch.Name, 300)
	if err != nil {
		t.Fatal(err)
	}
	if first.ResponseTimeS != want {
		t.Fatalf("served regress rt %v, offline %v", first.ResponseTimeS, want)
	}

	var warm PredictResponse
	if code := getJSON(t, client, url, &warm); code != http.StatusOK {
		t.Fatalf("warm repeat: status %d", code)
	}
	if warm.Cold || warm.ResponseTimeS != first.ResponseTimeS {
		t.Fatalf("warm repeat: cold=%v rt=%v, want warm rt=%v", warm.Cold, warm.ResponseTimeS, first.ResponseTimeS)
	}

	goal := 4 * want
	wantCap, err := offline.MaxClients(arch.Name, goal)
	if err != nil {
		t.Fatal(err)
	}
	var capResp CapacityResponse
	capURL := fmt.Sprintf("%s/v1/capacity?arch=%s&goal_rt_s=%v&method=regress", srv.URL, arch.Name, goal)
	if code := getJSON(t, client, capURL, &capResp); code != http.StatusOK {
		t.Fatalf("%s: status %d", capURL, code)
	}
	if capResp.MaxClients != wantCap {
		t.Fatalf("served regress capacity %v, offline %v", capResp.MaxClients, wantCap)
	}

	// The tier predicts means only: percentile requests are 400s.
	pctURL := url + "&percentile=0.9"
	if code := getJSON(t, client, pctURL, nil); code != http.StatusBadRequest {
		t.Fatalf("percentile with regress: status %d, want 400", code)
	}
}

// TestServedLQNMatchesOffline checks the exact layered path: the
// solver slots' warm-started solves must agree with a cold offline solve
// to well within the solver's convergence tolerance, and repeating the
// identical query must reproduce the identical number.
func TestServedLQNMatchesOffline(t *testing.T) {
	_, srv := newTestServer(t, nil)
	client := srv.Client()

	arch := workload.AppServF()
	const n = 900
	model, err := lqn.NewTradeModel(arch, workload.CaseStudyDB(), workload.CaseStudyDemands(), workload.TypicalWorkload(n))
	if err != nil {
		t.Fatal(err)
	}
	res, err := lqn.NewSolver().Solve(model, lqn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := res.MeanResponseTime()

	url := fmt.Sprintf("%s/v1/predict?arch=%s&clients=%d&method=lqn", srv.URL, arch.Name, n)
	var first PredictResponse
	if code := getJSON(t, client, url, &first); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if rel := math.Abs(first.ResponseTimeS-want) / want; rel > 1e-6 {
		t.Fatalf("served lqn RT %v vs offline %v (rel %v)", first.ResponseTimeS, want, rel)
	}
	// A repeat of the identical query warm-starts from the previous
	// solution — that history-dependence is the solver slot's design — so
	// repeats agree to the solver's convergence tolerance, not bitwise.
	var second PredictResponse
	getJSON(t, client, url, &second)
	if rel := math.Abs(second.ResponseTimeS-first.ResponseTimeS) / first.ResponseTimeS; rel > 1e-6 {
		t.Fatalf("identical lqn queries disagreed beyond tolerance: %v vs %v", first.ResponseTimeS, second.ResponseTimeS)
	}

	// Capacity through a solver slot: deterministic across repeats, and
	// the returned population really does straddle the goal.
	goal := 2 * want
	capURL := fmt.Sprintf("%s/v1/capacity?arch=%s&goal_rt_s=%v&method=lqn", srv.URL, arch.Name, goal)
	var c1, c2 CapacityResponse
	if code := getJSON(t, client, capURL, &c1); code != http.StatusOK {
		t.Fatalf("capacity status %d", code)
	}
	getJSON(t, client, capURL, &c2)
	if c1.MaxClients != c2.MaxClients {
		t.Fatalf("identical lqn capacity queries disagreed: %v vs %v", c1.MaxClients, c2.MaxClients)
	}
	if c1.Evaluations <= 0 {
		t.Fatal("capacity search reported no evaluations")
	}
	atRT := func(pop int) float64 {
		for i, p := range workload.TypicalWorkload(pop) {
			model.Classes[i].Population = p.Clients
		}
		r, err := lqn.NewSolver().Solve(model, lqn.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return r.MeanResponseTime()
	}
	nCap := int(c1.MaxClients)
	if nCap < 1 {
		t.Fatalf("capacity %v under goal %v", c1.MaxClients, goal)
	}
	if rt := atRT(nCap); rt > goal*(1+1e-6) {
		t.Fatalf("served capacity %d breaks the goal: RT %v > %v", nCap, rt, goal)
	}
	if rt := atRT(nCap + 1); rt <= goal {
		t.Fatalf("served capacity %d not maximal: RT(%d) = %v <= %v", nCap, nCap+1, rt, goal)
	}
}

// offlinePredictor adapts offline hybrid models to rm.Predictor for
// the allocation round-trip.
type offlinePredictor struct {
	t      *testing.T
	models map[string]interface {
		Predict(float64) float64
		MaxClients(float64) (float64, error)
	}
}

func (p offlinePredictor) Predict(arch string, n float64) (float64, error) {
	return p.models[arch].Predict(n), nil
}

func (p offlinePredictor) MaxClients(arch string, goal float64) (float64, error) {
	return p.models[arch].MaxClients(goal)
}

// TestServedAllocationMatchesOffline round-trips Algorithm 1: the plan
// served from cached models must equal rm.Allocate run offline over
// identically-built models.
func TestServedAllocationMatchesOffline(t *testing.T) {
	_, srv := newTestServer(t, nil)
	client := srv.Client()

	req := AllocateRequest{
		Classes: []AllocClass{
			{Name: "gold", GoalRTS: 0.06, Clients: 900},
			{Name: "silver", GoalRTS: 0.3, Clients: 2200},
		},
		Servers: []AllocServer{
			{Name: "s1", Arch: "AppServS", Power: 1},
			{Name: "f1", Arch: "AppServF", Power: 1},
			{Name: "vf1", Arch: "AppServVF", Power: 1},
		},
		Slack: 1.1,
	}
	var got AllocateResponse
	if code := postJSON(t, client, srv.URL+"/v1/allocate", req, &got); code != http.StatusOK {
		t.Fatalf("allocate status %d", code)
	}

	cfg := hybrid.Config{DB: workload.CaseStudyDB(), Demands: workload.CaseStudyDemands()}
	pred := offlinePredictor{t: t, models: map[string]interface {
		Predict(float64) float64
		MaxClients(float64) (float64, error)
	}{}}
	for _, a := range workload.CaseStudyServers() {
		sm, _, err := hybrid.BuildServerMix(cfg, a, 0)
		if err != nil {
			t.Fatal(err)
		}
		pred.models[a.Name] = sm
	}
	classes := []rm.Class{{Name: "gold", GoalRT: 0.06, Clients: 900}, {Name: "silver", GoalRT: 0.3, Clients: 2200}}
	servers := []rm.Server{{Name: "s1", Arch: "AppServS", Power: 1}, {Name: "f1", Arch: "AppServF", Power: 1}, {Name: "vf1", Arch: "AppServVF", Power: 1}}
	want, err := rm.Allocate(classes, servers, pred, 1.1, rm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Allocations) != len(want.Allocations) {
		t.Fatalf("served %d allocations, offline %d", len(got.Allocations), len(want.Allocations))
	}
	for i, a := range want.Allocations {
		g := got.Allocations[i]
		if g.Server != a.Server || g.Class != a.Class || g.Clients != a.Clients {
			t.Fatalf("allocation %d: served %+v, offline %+v", i, g, a)
		}
	}
	if got.Slack != want.Slack || got.UsagePct != want.UsagePct {
		t.Fatalf("plan summary: served (%v, %v), offline (%v, %v)", got.Slack, got.UsagePct, want.Slack, want.UsagePct)
	}
}

// TestColdStampedeBuildsOnce aims a thundering herd of identical cold
// requests at the service: exactly one hybrid build may run; everyone
// shares its result.
func TestColdStampedeBuildsOnce(t *testing.T) {
	s, srv := newTestServer(t, nil)
	client := srv.Client()

	var builds atomic.Int32
	orig := s.store.build
	s.store.build = func(k modelKey) (*modelEntry, error) {
		builds.Add(1)
		time.Sleep(20 * time.Millisecond) // widen the stampede window
		return orig(k)
	}

	const herd = 32
	results := make([]float64, herd)
	var wg sync.WaitGroup
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var resp PredictResponse
			code := getJSON(t, client, srv.URL+"/v1/predict?arch=AppServF&clients=500", &resp)
			if code != http.StatusOK {
				t.Errorf("herd request %d: status %d", i, code)
				return
			}
			results[i] = resp.ResponseTimeS
		}(i)
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("stampede triggered %d builds, want 1", n)
	}
	for i := 1; i < herd; i++ {
		if results[i] != results[0] {
			t.Fatalf("herd members disagree: %v vs %v", results[i], results[0])
		}
	}
}

// TestEvictionRebuild bounds the cache at one entry and alternates two
// keys: each switch must evict, rebuild on the next request, and keep
// serving numbers identical to the first build of that key.
func TestEvictionRebuild(t *testing.T) {
	s, srv := newTestServer(t, func(c *Config) { c.CacheCapacity = 1 })
	client := srv.Client()

	var builds atomic.Int32
	orig := s.store.build
	s.store.build = func(k modelKey) (*modelEntry, error) {
		builds.Add(1)
		return orig(k)
	}

	predict := func(arch string) float64 {
		var resp PredictResponse
		if code := getJSON(t, client, srv.URL+"/v1/predict?arch="+arch+"&clients=500", &resp); code != http.StatusOK {
			t.Fatalf("%s: status %d", arch, code)
		}
		return resp.ResponseTimeS
	}
	f1 := predict("AppServF") // build 1
	s1 := predict("AppServS") // build 2, evicts F
	f2 := predict("AppServF") // build 3, evicts S
	f3 := predict("AppServF") // warm hit
	if n := builds.Load(); n != 3 {
		t.Fatalf("%d builds, want 3 (two cold + one rebuild)", n)
	}
	if f1 != f2 || f2 != f3 {
		t.Fatalf("rebuilt model disagrees: %v, %v, %v", f1, f2, f3)
	}
	if s1 == f1 {
		t.Fatal("distinct architectures served identical predictions")
	}
	if s.store.lru.Len() != 1 {
		t.Fatalf("cache holds %d entries, capacity 1", s.store.lru.Len())
	}
}

// TestConcurrentServing is the race-tier soak: hybrid and layered
// requests across every architecture and several mixes, all in flight
// together, must each reproduce the value the quiet service serves for
// the same query afterwards — exactly for the closed-form hybrid path,
// and to solver tolerance for the warm-started layered path.
func TestConcurrentServing(t *testing.T) {
	_, srv := newTestServer(t, nil)
	client := srv.Client()

	type query struct {
		url string
		lqn bool
	}
	archs := []string{"AppServS", "AppServF", "AppServVF"}
	var queries []query
	for i, arch := range archs {
		for _, n := range []int{200, 700, 1500} {
			queries = append(queries, query{url: fmt.Sprintf("%s/v1/predict?arch=%s&clients=%d&buy_pct=%d", srv.URL, arch, n, 5*i)})
		}
		queries = append(queries, query{url: fmt.Sprintf("%s/v1/predict?arch=%s&clients=400&method=lqn", srv.URL, arch), lqn: true})
	}
	const reps = 4
	got := make([]float64, reps*len(queries))
	var wg sync.WaitGroup
	for rep := 0; rep < reps; rep++ {
		for qi, q := range queries {
			wg.Add(1)
			go func(slot int, q query) {
				defer wg.Done()
				var resp PredictResponse
				if code := getJSON(t, client, q.url, &resp); code != http.StatusOK {
					t.Errorf("%s: status %d", q.url, code)
					return
				}
				got[slot] = resp.ResponseTimeS
			}(rep*len(queries)+qi, q)
		}
	}
	wg.Wait()
	for qi, q := range queries {
		var quiet PredictResponse
		getJSON(t, client, q.url, &quiet)
		for rep := 0; rep < reps; rep++ {
			v := got[rep*len(queries)+qi]
			if q.lqn {
				if rel := math.Abs(v-quiet.ResponseTimeS) / quiet.ResponseTimeS; rel > 1e-6 {
					t.Fatalf("%s: concurrent answer %v vs quiet %v beyond solver tolerance", q.url, v, quiet.ResponseTimeS)
				}
			} else if v != quiet.ResponseTimeS {
				t.Fatalf("%s: concurrent answer %v, quiet answer %v", q.url, v, quiet.ResponseTimeS)
			}
		}
	}
}

// TestOverloadShedsNotCollapses floods the build queue with distinct
// cold keys while warm traffic continues: the flood must shed with 429
// + Retry-After, and the accepted (warm) requests' p99 must stay within
// 2× of the uncontended p99 — backpressure, not collapse.
func TestOverloadShedsNotCollapses(t *testing.T) {
	s, srv := newTestServer(t, func(c *Config) {
		c.BuildWorkers = 1
		c.MaxQueuedBuilds = 1
	})
	client := srv.Client()

	warmURL := srv.URL + "/v1/predict?arch=AppServF&clients=500"
	if code := getJSON(t, client, warmURL, nil); code != http.StatusOK {
		t.Fatalf("warm-up status %d", code)
	}
	orig := s.store.build
	s.store.build = func(k modelKey) (*modelEntry, error) {
		time.Sleep(30 * time.Millisecond) // an expensive cold build
		return orig(k)
	}

	warmP99 := func(samples int) time.Duration {
		lats := make([]time.Duration, samples)
		for i := range lats {
			start := time.Now()
			if code := getJSON(t, client, warmURL, nil); code != http.StatusOK {
				t.Fatalf("warm request status %d", code)
			}
			lats[i] = time.Since(start)
		}
		// Nearest-rank p99 over the sorted latencies.
		for i := 1; i < len(lats); i++ {
			for j := i; j > 0 && lats[j] < lats[j-1]; j-- {
				lats[j], lats[j-1] = lats[j-1], lats[j]
			}
		}
		return lats[(samples*99)/100]
	}
	uncontended := warmP99(200)

	// 10× overload: a barrage of distinct cold keys (each a 30ms build
	// against a ~100µs warm request) hammers the build queue.
	var floodWG sync.WaitGroup
	var shed, okCold atomic.Int32
	stop := make(chan struct{})
	for g := 0; g < 10; g++ {
		floodWG.Add(1)
		go func(g int) {
			defer floodWG.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				url := fmt.Sprintf("%s/v1/predict?arch=AppServS&clients=100&buy_pct=%d.%d", srv.URL, (g*97+i)%90, i%10)
				resp, err := client.Get(url)
				if err != nil {
					t.Errorf("flood request: %v", err)
					return
				}
				if resp.StatusCode == http.StatusTooManyRequests {
					shed.Add(1)
					if resp.Header.Get("Retry-After") == "" {
						t.Error("429 without Retry-After")
					}
				} else if resp.StatusCode == http.StatusOK {
					okCold.Add(1)
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(g)
	}
	contended := warmP99(200)
	close(stop)
	floodWG.Wait()

	if shed.Load() == 0 {
		t.Fatal("overload shed nothing: no 429s observed")
	}
	// Generous floor so scheduler noise on a loaded -race run cannot
	// flake the ratio when the uncontended p99 is tens of microseconds.
	bound := 2 * uncontended
	if floor := 20 * time.Millisecond; bound < floor {
		bound = floor
	}
	if contended > bound {
		t.Fatalf("accepted p99 %v under overload exceeds bound %v (uncontended %v)", contended, bound, uncontended)
	}
	t.Logf("uncontended p99 %v, overloaded p99 %v, shed %d, cold accepted %d",
		uncontended, contended, shed.Load(), okCold.Load())
}

// TestDeadlineExpiresWith504 parks a request behind a slow build with a
// millisecond deadline: it must come back 504, not hang.
func TestDeadlineExpiresWith504(t *testing.T) {
	s, srv := newTestServer(t, nil)
	client := srv.Client()

	orig := s.store.build
	release := make(chan struct{})
	s.store.build = func(k modelKey) (*modelEntry, error) {
		<-release
		return orig(k)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// The flight leader: generous deadline, blocked on the build.
		getJSON(t, client, srv.URL+"/v1/predict?arch=AppServF&clients=500", nil)
	}()
	time.Sleep(10 * time.Millisecond) // let the leader take the flight
	code := getJSON(t, client, srv.URL+"/v1/predict?arch=AppServF&clients=500&deadline_ms=5", nil)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("deadline-bound waiter got %d, want 504", code)
	}
	close(release)
	wg.Wait()
}

// TestGracefulShutdownDrains closes the service while layered solves
// are in flight: every request accepted before shutdown must still get
// its answer (the drain contract), and requests after it must be told
// the service is gone rather than hanging.
func TestGracefulShutdownDrains(t *testing.T) {
	s := newTestService(t, func(c *Config) { c.SolveWorkers = 1 })

	const inflight = 24
	codes := make(chan error, inflight)
	var wg sync.WaitGroup
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := httptest.NewRequest(http.MethodGet,
				fmt.Sprintf("/v1/predict?arch=AppServF&clients=%d&method=lqn", 100+i*50), nil)
			resp, err := s.Predict(req, PredictRequest{Arch: "AppServF", Clients: float64(100 + i*50), Method: "lqn"})
			if err != nil {
				codes <- err
				return
			}
			if resp.ResponseTimeS <= 0 {
				codes <- fmt.Errorf("non-positive RT %v", resp.ResponseTimeS)
				return
			}
			codes <- nil
		}(i)
	}
	time.Sleep(20 * time.Millisecond) // let the herd enqueue
	s.Close()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("shutdown left requests hanging")
	}
	close(codes)
	var answered, refused int
	for err := range codes {
		switch {
		case err == nil:
			answered++
		case err == ErrShuttingDown:
			refused++
		default:
			t.Fatalf("request dropped mid-drain: %v", err)
		}
	}
	if answered+refused != inflight {
		t.Fatalf("accounted for %d of %d requests", answered+refused, inflight)
	}
	if answered == 0 {
		t.Fatal("no request was answered before shutdown")
	}
	// After Close the service refuses new work instead of hanging.
	req := httptest.NewRequest(http.MethodGet, "/v1/predict", nil)
	if _, err := s.Predict(req, PredictRequest{Arch: "AppServF", Clients: 10}); err != ErrShuttingDown {
		t.Fatalf("post-shutdown predict: %v, want ErrShuttingDown", err)
	}
}

// TestBadRequests maps every client mistake to a 400 with a JSON error
// body.
func TestBadRequests(t *testing.T) {
	_, srv := newTestServer(t, nil)
	client := srv.Client()
	for _, url := range []string{
		"/v1/predict?arch=NoSuchServer&clients=10",
		"/v1/predict?clients=10",
		"/v1/predict?arch=AppServF&clients=0",
		"/v1/predict?arch=AppServF&clients=10&percentile=1.5",
		"/v1/predict?arch=AppServF&clients=10&buy_pct=150",
		"/v1/predict?arch=AppServF&clients=10&method=tarot",
		"/v1/capacity?arch=AppServF&goal_rt_s=0",
		"/v1/capacity?arch=AppServF&goal_rt_s=-1",
	} {
		var e errorResponse
		if code := getJSON(t, client, srv.URL+url, &e); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", url, code)
		} else if e.Error == "" {
			t.Errorf("%s: empty error body", url)
		}
	}
	if code := postJSON(t, client, srv.URL+"/v1/allocate", AllocateRequest{}, nil); code != http.StatusBadRequest {
		t.Errorf("empty allocate: status %d, want 400", code)
	}
	if code := postJSON(t, client, srv.URL+"/v1/allocate", AllocateRequest{
		Classes: []AllocClass{{Name: "g", GoalRTS: 0.1, Clients: 10}},
		Servers: []AllocServer{{Name: "x", Arch: "AppServF", Power: 1}},
		Slack:   0.5, // deflation without opting in
	}, nil); code != http.StatusBadRequest {
		t.Errorf("slack<1 without allow_deflation: status %d, want 400", code)
	}
}

// TestHealthz sanity-checks the liveness endpoint.
func TestHealthz(t *testing.T) {
	_, srv := newTestServer(t, nil)
	var h struct {
		Status string   `json:"status"`
		Archs  []string `json:"archs"`
	}
	if code := getJSON(t, srv.Client(), srv.URL+"/healthz", &h); code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}
	if h.Status != "ok" || len(h.Archs) != 3 {
		t.Fatalf("healthz = %+v", h)
	}
}

// TestCancelledClientContext covers a layered request that is dead on
// arrival: it gets its context's error and no solve runs for it.
func TestCancelledClientContext(t *testing.T) {
	reg := obs.NewRegistry()
	obs.Bind(reg)
	defer obs.Bind(nil)

	s := newTestService(t, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodGet, "/v1/predict", nil).WithContext(ctx)
	_, err := s.Predict(req, PredictRequest{Arch: "AppServF", Clients: 100, Method: "lqn"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled lqn predict: %v, want context.Canceled", err)
	}
	if n := reg.Counter("serve_batch_solves").Value(); n != 0 {
		t.Fatalf("serve_batch_solves = %d for a cancelled request, want 0", n)
	}
}

// holdSolveSlot takes the service's only solver slot (SolveWorkers 1)
// as a running solve would, and returns its release.
func holdSolveSlot(t *testing.T, s *Service) func() {
	t.Helper()
	slot, err := s.solves.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	release := func() { once.Do(func() { s.solves.release(slot) }) }
	t.Cleanup(release)
	return release
}

// A layered request whose deadline passes while it waits for a solver
// slot is a 504, counted once in serve_deadline_expired, and solves
// nothing.
func TestSolveDeadlineCountedOnce(t *testing.T) {
	reg := obs.NewRegistry()
	obs.Bind(reg)
	defer obs.Bind(nil)

	s, srv := newTestServer(t, func(c *Config) { c.SolveWorkers = 1 })
	release := holdSolveSlot(t, s)
	expired, solves := reg.Counter("serve_deadline_expired"), reg.Counter("serve_batch_solves")
	url := srv.URL + "/v1/predict?arch=AppServF&clients=500&method=lqn&deadline_ms=5"
	if code := getJSON(t, srv.Client(), url, nil); code != http.StatusGatewayTimeout {
		t.Fatalf("lqn predict behind a held slot: status %d, want 504", code)
	}
	if n := expired.Value(); n != 1 {
		t.Errorf("serve_deadline_expired = %d after one expired request, want 1", n)
	}
	if n := solves.Value(); n != 0 {
		t.Errorf("serve_batch_solves = %d, want 0: the expired request must not solve", n)
	}
	release()
	if code := getJSON(t, srv.Client(), url, nil); code != http.StatusOK {
		t.Fatalf("lqn predict with the slot free: status %d, want 200", code)
	}
}

// TestSolveAdmissionSheds fills the solve queue: with the only solver
// slot held and maxQueuedSolves callers waiting behind it, the next
// layered request is refused at once with ErrOverloaded (429 and
// Retry-After over HTTP), and freeing the slot answers every waiter.
func TestSolveAdmissionSheds(t *testing.T) {
	reg := obs.NewRegistry()
	obs.Bind(reg)
	defer obs.Bind(nil)

	s, srv := newTestServer(t, func(c *Config) { c.SolveWorkers = 1 })
	release := holdSolveSlot(t, s)
	rejected := reg.Counter("serve_rejected_overload")
	httpReq := httptest.NewRequest(http.MethodGet, "/v1/predict", nil)
	req := PredictRequest{Arch: "AppServF", Clients: 500, Method: "lqn", DeadlineMS: maxDeadlineMS}

	errs := make(chan error, maxQueuedSolves)
	for i := 0; i < maxQueuedSolves; i++ {
		go func() {
			_, err := s.Predict(httpReq, req)
			errs <- err
		}()
	}
	for deadline := time.Now().Add(10 * time.Second); s.solves.queued.Load() != 1+maxQueuedSolves; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			release()
			t.Fatalf("%d callers admitted, want the slot's holder and %d waiters", s.solves.queued.Load(), maxQueuedSolves)
		}
	}

	if _, err := s.Predict(httpReq, req); !errors.Is(err, ErrOverloaded) {
		t.Errorf("predict past a full solve queue: %v, want ErrOverloaded", err)
	}
	if n := rejected.Value(); n != 1 {
		t.Errorf("serve_rejected_overload = %d after one refusal, want 1", n)
	}
	resp, err := srv.Client().Get(srv.URL + "/v1/predict?arch=AppServF&clients=500&method=lqn")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Errorf("HTTP predict past a full solve queue: status %d, Retry-After %q; want 429 with Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if n := rejected.Value(); n != 2 {
		t.Errorf("serve_rejected_overload = %d after two refusals, want 2", n)
	}

	release()
	for i := 0; i < maxQueuedSolves; i++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatalf("waiter %d: %v", i, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%d of %d waiters unanswered after the slot was freed", maxQueuedSolves-i, maxQueuedSolves)
		}
	}
	if n := s.solves.queued.Load(); n != 0 {
		t.Fatalf("%d callers still counted in the solve queue, want 0", n)
	}
}

// TestBuildWorkersBoundAllMethods pins the one admission controller:
// with BuildWorkers 1, a cold hybrid build and a cold regress build must
// never run side by side (two per-tier semaphores once let them), and
// serve_build_queue_depth must count both while one runs and the other
// waits (two per-tier counters once overwrote each other in the gauge).
func TestBuildWorkersBoundAllMethods(t *testing.T) {
	reg := obs.NewRegistry()
	obs.Bind(reg)
	defer obs.Bind(nil)
	depth := reg.Gauge("serve_build_queue_depth")

	s := newTestService(t, func(c *Config) {
		c.BuildWorkers = 1
		c.RegressSimSeconds = 2
	})
	started := make(chan string, 2)
	release := make(chan struct{})
	orig := s.store.build
	s.store.build = func(k modelKey) (*modelEntry, error) {
		started <- k.method
		<-release
		return orig(k)
	}

	var wg sync.WaitGroup
	for _, req := range []PredictRequest{
		{Arch: "AppServF", Clients: 500},
		{Arch: "AppServS", Clients: 300, Method: "regress"},
	} {
		wg.Add(1)
		go func(req PredictRequest) {
			defer wg.Done()
			if _, err := s.Predict(httptest.NewRequest(http.MethodGet, "/v1/predict", nil), req); err != nil {
				t.Errorf("%+v: %v", req, err)
			}
		}(req)
	}
	fail := func(format string, args ...any) {
		t.Helper()
		close(release)
		wg.Wait()
		t.Fatalf(format, args...)
	}

	first := <-started
	// The other build must be admitted — counted — and parked behind the
	// single worker slot, not started.
	for deadline := time.Now().Add(10 * time.Second); depth.Value() != 2; time.Sleep(time.Millisecond) {
		select {
		case second := <-started:
			fail("%s and %s builds ran concurrently with BuildWorkers 1", first, second)
		default:
		}
		if time.Now().After(deadline) {
			fail("serve_build_queue_depth = %d with one build running and one waiting, want 2", depth.Value())
		}
	}
	select {
	case second := <-started:
		fail("%s and %s builds ran concurrently with BuildWorkers 1", first, second)
	default:
	}
	close(release)
	wg.Wait()
	if got := depth.Value(); got != 0 {
		t.Fatalf("serve_build_queue_depth = %d after both builds finished, want 0", got)
	}
	if got := reg.Counter("serve_builds").Value(); got != 2 {
		t.Fatalf("serve_builds = %d, want 2", got)
	}
}

// TestMixedTierEviction bounds the one store at two entries and walks
// hybrid and regress keys through it: recency is tracked across
// methods, the least recently used entry goes whichever tier it belongs
// to, and an evicted key rebuilds exactly once and serves what it served
// before.
func TestMixedTierEviction(t *testing.T) {
	s := newTestService(t, func(c *Config) {
		c.CacheCapacity = 2
		c.RegressSimSeconds = 2
	})
	builds := map[modelKey]int{}
	var mu sync.Mutex
	orig := s.store.build
	s.store.build = func(k modelKey) (*modelEntry, error) {
		mu.Lock()
		builds[k]++
		mu.Unlock()
		return orig(k)
	}
	predict := func(arch, method string, wantCold bool) float64 {
		t.Helper()
		resp, err := s.Predict(httptest.NewRequest(http.MethodGet, "/v1/predict", nil),
			PredictRequest{Arch: arch, Clients: 300, Method: method})
		if err != nil {
			t.Fatalf("%s %s: %v", method, arch, err)
		}
		if resp.Cold != wantCold {
			t.Fatalf("%s %s: cold = %v, want %v", method, arch, resp.Cold, wantCold)
		}
		return resp.ResponseTimeS
	}
	predict("AppServF", "hybrid", true)        // store: hF
	r1 := predict("AppServS", "regress", true) // store: rS hF
	predict("AppServF", "hybrid", false)       // refreshes hF: rS is now the oldest
	predict("AppServVF", "hybrid", true)       // evicts rS, the LRU entry of either tier
	predict("AppServF", "hybrid", false)       // hF survived
	r2 := predict("AppServS", "regress", true) // rebuilt, evicts hVF
	r3 := predict("AppServS", "regress", false)
	if r1 != r2 || r2 != r3 {
		t.Fatalf("rebuilt regress model disagrees: %v, %v, %v", r1, r2, r3)
	}
	want := map[modelKey]int{
		makeKey("hybrid", "AppServF", 0):  1,
		makeKey("hybrid", "AppServVF", 0): 1,
		makeKey("regress", "AppServS", 0): 2,
	}
	if !reflect.DeepEqual(builds, want) {
		t.Fatalf("builds per key = %v, want %v", builds, want)
	}
	if n := s.store.lru.Len(); n != 2 {
		t.Fatalf("store holds %d entries, capacity 2", n)
	}
}

// A GET with several malformed parameters names the same one every
// time: parameters are parsed in queryParams order, not map order.
func TestGetDecodeErrorIsStable(t *testing.T) {
	_, srv := newTestServer(t, nil)
	for _, tc := range []struct{ url, want string }{
		{"/v1/predict?arch=AppServF&clients=x&buy_pct=y&percentile=z", "bad clients: x"},
		{"/v1/capacity?arch=AppServF&buy_pct=y&goal_rt_s=x&deadline_ms=w", "bad goal_rt_s: x"},
	} {
		for i := 0; i < 40; i++ {
			var e errorResponse
			if code := getJSON(t, srv.Client(), srv.URL+tc.url, &e); code != http.StatusBadRequest {
				t.Fatalf("%s: status %d, want 400", tc.url, code)
			}
			if e.Error != tc.want {
				t.Fatalf("%s (attempt %d): error %q, want %q", tc.url, i, e.Error, tc.want)
			}
		}
	}
}

// calibrateScale hands rtdist.CalibrateScale the per-class sample
// buffers instead of one merged copy. On a two-class mix of each
// architecture the scale must equal, bit for bit, the mean absolute
// deviation summed over the buffers merged in sorted class order.
func TestCalibrateScaleMatchesMergedSamples(t *testing.T) {
	s := newTestService(t, func(c *Config) { c.LaplaceB, c.CalibrationSimSeconds = 0, 8 })
	const buyFrac = 0.25
	for _, arch := range workload.CaseStudyServers() {
		sm, _, err := hybrid.BuildServerMix(hybrid.Config{DB: s.cfg.DB, Demands: s.cfg.Demands}, arch, buyFrac)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.calibrateScale(arch, buyFrac, sm)
		if err != nil {
			t.Fatal(err)
		}
		res, err := trade.Run(trade.Config{
			Server:   arch,
			DB:       s.cfg.DB,
			Demands:  s.cfg.Demands,
			Load:     workload.MixLoad(int(1.4*sm.SaturationClients()), buyFrac),
			Seed:     calibrationSeed,
			WarmUp:   s.cfg.CalibrationSimSeconds / 4,
			Duration: s.cfg.CalibrationSimSeconds,
		})
		if err != nil {
			t.Fatal(err)
		}
		merged := append(append([]float64(nil), res.PerClass["browse"].Samples...), res.PerClass["buy"].Samples...)
		if len(res.PerClass) != 2 || len(merged) == 0 || len(res.PerClass["buy"].Samples) == 0 {
			t.Fatalf("%s: want samples in exactly the browse and buy classes", arch.Name)
		}
		var sum float64
		for _, x := range merged {
			sum += math.Abs(x - res.MeanRT)
		}
		if want := sum / float64(len(merged)); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: per-class scale %v, merged %v", arch.Name, got, want)
		}
	}
}

// A flight whose leader gives up waiting for a build slot fails with the
// leader's context error. That deadline is not the joiners': with both
// worker slots held, a short-deadline leader must come back 504 while
// the joiner behind it, whose own five seconds stand, takes the build
// over and is answered 200 — and only the real expiry is counted.
func TestJoinerKeepsItsOwnDeadline(t *testing.T) {
	reg := obs.NewRegistry()
	obs.Bind(reg)
	defer obs.Bind(nil)

	s, srv := newTestServer(t, nil) // two build workers
	client := srv.Client()
	started := make(chan struct{}, 3)
	release := make(chan struct{})
	orig := s.store.build
	s.store.build = func(k modelKey) (*modelEntry, error) {
		started <- struct{}{}
		<-release
		return orig(k)
	}
	var wg sync.WaitGroup
	get := func(query string) *int {
		code := new(int)
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := client.Get(srv.URL + "/v1/predict?clients=500&arch=" + query)
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			*code = resp.StatusCode
		}()
		return code
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				close(release)
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}

	holders := []*int{get("AppServS"), get("AppServVF")}
	<-started
	<-started // both worker slots are now held
	leader := get("AppServF&deadline_ms=250")
	waitFor("the leader to queue for a slot", func() bool { return s.store.slots.queued.Load() == 3 })
	joiner := get("AppServF")
	waitFor("the joiner to miss the cache", func() bool { return reg.Counter("serve_cache_misses").Value() == 4 })
	waitFor("the leader's deadline", func() bool { return reg.Counter("serve_deadline_expired").Value() >= 1 })
	close(release)
	wg.Wait()

	if *leader != http.StatusGatewayTimeout {
		t.Errorf("leader with a 250 ms deadline behind busy workers got %d, want 504", *leader)
	}
	if *joiner != http.StatusOK {
		t.Errorf("joiner with its own deadline intact got %d, want 200", *joiner)
	}
	for _, code := range holders {
		if *code != http.StatusOK {
			t.Errorf("slot-holding request got %d, want 200", *code)
		}
	}
	if n := reg.Counter("serve_deadline_expired").Value(); n != 1 {
		t.Errorf("serve_deadline_expired = %d, want 1 (the leader's only)", n)
	}
}

// holdBuildSlots takes every build slot, as running builds would, and
// returns their release.
func holdBuildSlots(t *testing.T, s *Service) func() {
	t.Helper()
	for i := 0; i < s.cfg.BuildWorkers; i++ {
		if _, err := s.store.slots.acquire(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	var once sync.Once
	release := func() {
		once.Do(func() {
			for i := 0; i < s.cfg.BuildWorkers; i++ {
				s.store.slots.release(struct{}{})
			}
		})
	}
	t.Cleanup(release)
	return release
}

// A hybrid key's percentile calibration is admitted like a build, on a
// resident key with no configured scale: past the build slots and their
// queue the first percentile request is refused; a leader whose
// deadline passes while it waits for a slot is a 504, counted once, and
// the joiner behind it calibrates in its place; and once the scale is
// kept, a percentile takes no slot at all.
func TestPercentileCalibrationAdmission(t *testing.T) {
	reg := obs.NewRegistry()
	obs.Bind(reg)
	defer obs.Bind(nil)

	s, srv := newTestServer(t, func(c *Config) {
		c.LaplaceB = 0
		c.CalibrationSimSeconds = 4
		c.MaxQueuedBuilds = 1
	})
	client := srv.Client()
	runs, expired := reg.Counter("serve_simulator_runs"), reg.Counter("serve_deadline_expired")
	const url = "/v1/predict?arch=AppServF&clients=500"
	if code := getJSON(t, client, srv.URL+url, nil); code != http.StatusOK {
		t.Fatalf("mean predict: status %d", code)
	}
	if n := runs.Value(); n != 0 {
		t.Fatalf("a mean request ran the simulator %d times", n)
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	queued := func(n int64) func() bool { return func() bool { return s.store.slots.queued.Load() == n } }

	release := holdBuildSlots(t, s)
	qctx, cancelQueued := context.WithCancel(context.Background())
	waiting := make(chan error, 1)
	go func() {
		_, err := s.store.slots.acquire(qctx)
		waiting <- err
	}()
	waitFor("the build queue to fill", queued(3))
	pct := PredictRequest{Arch: "AppServF", Clients: 500, Percentile: 0.9}
	if _, err := s.Predict(httptest.NewRequest(http.MethodGet, "/v1/predict", nil), pct); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("percentile past full build slots and queue: %v, want ErrOverloaded", err)
	}
	if n := reg.Counter("serve_rejected_overload").Value(); n != 1 {
		t.Errorf("serve_rejected_overload = %d, want 1", n)
	}
	cancelQueued()
	if err := <-waiting; !errors.Is(err, context.Canceled) {
		t.Fatalf("queued acquire: %v, want context.Canceled", err)
	}

	var wg sync.WaitGroup
	get := func(query string) (*int, *PredictResponse) {
		code, resp := new(int), new(PredictResponse)
		wg.Add(1)
		go func() {
			defer wg.Done()
			*code = getJSON(t, client, srv.URL+url+"&percentile=0.9"+query, resp)
		}()
		return code, resp
	}
	leader, _ := get("&deadline_ms=250")
	waitFor("the leader to queue for a slot", queued(3))
	joiner, joined := get("")
	waitFor("the joiner to arrive", func() bool { return reg.Counter("serve_predict_requests").Value() == 3 })
	waitFor("the leader's deadline", func() bool { return expired.Value() >= 1 })
	release()
	wg.Wait()
	if *leader != http.StatusGatewayTimeout {
		t.Errorf("leader with a 250 ms deadline behind busy slots got %d, want 504", *leader)
	}
	if *joiner != http.StatusOK || !joined.Cold || joined.BuildMS <= 0 {
		t.Errorf("joiner: status %d, cold %v, build_ms %v; want 200, cold, the calibration's wall time",
			*joiner, joined.Cold, joined.BuildMS)
	}
	if n := expired.Value(); n != 1 {
		t.Errorf("serve_deadline_expired = %d, want 1 (the leader's only)", n)
	}
	if n := runs.Value(); n != 1 {
		t.Errorf("serve_simulator_runs = %d, want 1: the joiner calibrates once", n)
	}

	holdBuildSlots(t, s)
	var warm PredictResponse
	if code := getJSON(t, client, srv.URL+url+"&percentile=0.9&deadline_ms=250", &warm); code != http.StatusOK {
		t.Fatalf("repeat percentile with every build slot held: status %d, want 200", code)
	}
	if warm.Cold || warm.BuildMS != 0 || warm.ResponseTimeS != joined.ResponseTimeS {
		t.Errorf("repeat percentile: cold %v, build_ms %v, rt %v; want warm, 0, %v",
			warm.Cold, warm.BuildMS, warm.ResponseTimeS, joined.ResponseTimeS)
	}
	if n := runs.Value(); n != 1 {
		t.Errorf("serve_simulator_runs = %d after a repeat, want 1", n)
	}
}

// A scale calibrated lazily is the scale the eager path fitted: for
// each case-study architecture at buy 0 % and 12.5 %, the served p90 of
// the hybrid and the layered path equals, bit for bit, the §7.1
// conversion of that path's mean at calibrateScale's fit to the offline
// model. Each path is the first percentile on one of the two mixes.
func TestLazyPercentileMatchesEagerScale(t *testing.T) {
	s := newTestService(t, func(c *Config) {
		c.LaplaceB, c.CalibrationSimSeconds = 0, 8
		c.SolveWorkers = 1 // a key's first layered solve is on a fresh sweep
	})
	httpReq := httptest.NewRequest(http.MethodGet, "/v1/predict", nil)
	const n, p = 600, 0.9
	for _, arch := range workload.CaseStudyServers() {
		for i, buyPct := range []float64{0, 12.5} {
			buyFrac := buyPct / 100
			sm, _, err := hybrid.BuildServerMix(hybrid.Config{DB: s.cfg.DB, Demands: s.cfg.Demands}, arch, buyFrac)
			if err != nil {
				t.Fatal(err)
			}
			b, err := s.calibrateScale(arch, buyFrac, sm)
			if err != nil {
				t.Fatal(err)
			}
			sw, err := lqn.NewTradeSweep(arch, s.cfg.DB, s.cfg.Demands, workload.MixLoad(1, buyFrac), s.cfg.LQN)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sw.Solve(workload.MixLoad(n, buyFrac))
			if err != nil {
				t.Fatal(err)
			}
			means := map[string]float64{"hybrid": sm.Predict(n), "lqn": res.MeanResponseTime()}
			order := []string{"hybrid", "lqn"}
			if i == 1 {
				order[0], order[1] = order[1], order[0]
			}
			for j, method := range order {
				resp, err := s.Predict(httpReq, PredictRequest{Arch: arch.Name, Clients: n, BuyPct: buyPct, Percentile: p, Method: method})
				if err != nil {
					t.Fatalf("%s %s buy %v%%: %v", method, arch.Name, buyPct, err)
				}
				if resp.Cold != (j == 0) {
					t.Errorf("%s %s buy %v%%: cold = %v, want %v", method, arch.Name, buyPct, resp.Cold, j == 0)
				}
				want, err := rtdist.PercentileFromMean(means[method], sm.Saturated(n), b, p)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(resp.ResponseTimeS) != math.Float64bits(want) {
					t.Errorf("%s %s buy %v%%: served p90 %v, eager %v", method, arch.Name, buyPct, resp.ResponseTimeS, want)
				}
			}
		}
	}
}

// TestRebuildRunsNoSimulation is the gate on "a key pays the simulator
// once, and only for what it is asked", in counts so it can fail on any
// machine: a hybrid key calibrates on its first percentile request and
// never for a mean, what a key measured outlives the key's eviction, a
// rebuild is solves and fits alone, and what a rebuilt model serves is
// bit for bit what the first build served.
func TestRebuildRunsNoSimulation(t *testing.T) {
	reg := obs.NewRegistry()
	obs.Bind(reg)
	defer obs.Bind(nil)
	runs, simSeconds := reg.Counter("serve_simulator_runs"), reg.Counter("serve_simulated_seconds")

	const calibSeconds, regressSeconds = 4, 2
	s := newTestService(t, func(c *Config) {
		c.CacheCapacity = 1
		c.LaplaceB = 0 // calibrate: a hybrid key's first percentile wants the simulator
		c.CalibrationSimSeconds = calibSeconds
		c.RegressSimSeconds = regressSeconds
	})
	httpReq := httptest.NewRequest(http.MethodGet, "/v1/predict", nil)
	predict := func(req PredictRequest) *PredictResponse {
		t.Helper()
		resp, err := s.Predict(httpReq, req)
		if err != nil {
			t.Fatalf("%+v: %v", req, err)
		}
		return resp
	}

	t.Run("cycle", func(t *testing.T) {
		perTier := map[string]int{}
		orig := s.store.build
		s.store.build = func(k modelKey) (*modelEntry, error) {
			perTier[k.method]++
			return orig(k)
		}
		defer func() { s.store.build = orig }()

		type answers struct{ laplaceB, mean, percentile, capacity float64 }
		// visit builds the key (capacity 1: the key before it was another)
		// and asks the built entry everything it can answer.
		visit := func(method, arch string, buyPct float64) answers {
			t.Helper()
			first := predict(PredictRequest{Arch: arch, Clients: 300, BuyPct: buyPct, Method: method})
			if !first.Cold {
				t.Fatalf("%s %s: visit did not build", method, arch)
			}
			key := makeKey(method, arch, buyPct)
			if _, cold, err := s.store.get(context.Background(), key); err != nil || cold {
				t.Fatalf("%s %s: entry not resident after its build (cold %v, err %v)", method, arch, cold, err)
			}
			a := answers{mean: first.ResponseTimeS}
			if method == "hybrid" {
				a.percentile = predict(PredictRequest{Arch: arch, Clients: 300, BuyPct: buyPct, Method: method, Percentile: 0.9}).ResponseTimeS
				ev, ok := s.evidence.Lookup(key)
				if !ok {
					t.Fatalf("%s %s: no scale kept after a percentile request", method, arch)
				}
				a.laplaceB = ev.laplaceB
			}
			c, err := s.Capacity(httpReq, CapacityRequest{Arch: arch, GoalRTS: 0.5, BuyPct: buyPct, Method: method})
			if err != nil {
				t.Fatalf("%s %s capacity: %v", method, arch, err)
			}
			a.capacity = c.MaxClients
			return a
		}
		keys := []struct {
			arch   string
			buyPct float64
		}{{"AppServS", 0}, {"AppServF", 12.5}, {"AppServVF", 30}}
		const cycles = 3
		firstBuild := map[modelKey]answers{}
		for cycle := 0; cycle < cycles; cycle++ {
			for _, method := range []string{"hybrid", "regress"} {
				for _, k := range keys {
					got := visit(method, k.arch, k.buyPct)
					key := makeKey(method, k.arch, k.buyPct)
					if cycle == 0 {
						if method == "hybrid" && got.laplaceB <= 0 {
							t.Fatalf("%v: calibrated scale %v", key, got.laplaceB)
						}
						firstBuild[key] = got
					} else if want := firstBuild[key]; got != want {
						t.Errorf("%v rebuilt in cycle %d answers %+v, first build %+v", key, cycle, got, want)
					}
				}
			}
		}
		K := uint64(len(keys))
		if got, want := runs.Value(), K+regressTrainSamples*K; got != want {
			t.Errorf("serve_simulator_runs = %d after %d builds of %d keys a tier, want %d: one calibration a hybrid key, %d runs a regress key, none on a rebuild",
				got, cycles, K, want, regressTrainSamples)
		}
		if got, want := simSeconds.Value(), K*5*calibSeconds/4+regressTrainSamples*K*5*regressSeconds/4; got != want {
			t.Errorf("serve_simulated_seconds = %d, want %d", got, want)
		}
		if got := reg.Counter("serve_builds").Value(); got != 2*cycles*K {
			t.Errorf("serve_builds = %d, want %d: the cache must behave as before", got, 2*cycles*K)
		}
		if perTier["hybrid"] != cycles*len(keys) || perTier["regress"] != cycles*len(keys) {
			t.Errorf("builds per tier = %v, want %d each", perTier, cycles*len(keys))
		}
		if got := s.evidence.Len(); got != 2*len(keys) {
			t.Errorf("evidence kept for %d keys, want %d", got, 2*len(keys))
		}
	})

	// herd sends 64 requests, 32 on each of two never-seen hybrid keys,
	// all at once: their builds and calibrations share the evidence
	// table and, at capacity 1, the keys evict each other. It returns the
	// simulator runs they made.
	herd := func(buyPct, percentile float64) uint64 {
		before := runs.Value()
		var wg sync.WaitGroup
		for i := 0; i < 64; i++ {
			wg.Add(1)
			go func(arch string) {
				defer wg.Done()
				if _, err := s.Predict(httpReq, PredictRequest{Arch: arch, Clients: 500, BuyPct: buyPct, Percentile: percentile}); err != nil {
					t.Error(err)
				}
			}([]string{"AppServF", "AppServVF"}[i%2])
		}
		wg.Wait()
		return runs.Value() - before
	}

	t.Run("herd", func(t *testing.T) {
		if got := herd(77, 0.9); got != 2 {
			t.Errorf("percentile herds of 32 on two never-seen keys ran the simulator %d times, want once each", got)
		}
	})

	// Means, capacities and allocations read the hybrid model alone, so
	// a key nobody asks a percentile of never simulates.
	t.Run("means never calibrate", func(t *testing.T) {
		before, kept := runs.Value(), s.evidence.Len()
		if got := herd(78, 0); got != 0 {
			t.Errorf("mean herds of 32 on two never-seen keys ran the simulator %d times, want 0", got)
		}
		for _, arch := range []string{"AppServF", "AppServVF"} {
			if _, err := s.Capacity(httpReq, CapacityRequest{Arch: arch, GoalRTS: 0.5, BuyPct: 78}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.allocate(httpReq, AllocateRequest{
			Classes: []AllocClass{{Name: "gold", GoalRTS: 0.1, Clients: 500}},
			Servers: []AllocServer{{Name: "f", Arch: "AppServF", Power: 1}, {Name: "vf", Arch: "AppServVF", Power: 1}},
			Slack:   1, BuyPct: 78,
		}); err != nil {
			t.Fatal(err)
		}
		if got := runs.Value() - before; got != 0 {
			t.Errorf("means, capacities and an allocation ran the simulator %d times, want 0", got)
		}
		if got := s.evidence.Len() - kept; got != 0 {
			t.Errorf("means, capacities and an allocation kept %d keys of evidence, want 0", got)
		}
	})

	t.Run("failure is not kept", func(t *testing.T) {
		before, kept := runs.Value(), s.evidence.Len()
		req := PredictRequest{Arch: "AppServS", Clients: 200, BuyPct: 41, Percentile: 0.9}
		s.cfg.CalibrationSimSeconds = -1 // the simulator refuses the horizon
		if _, err := s.Predict(httpReq, req); err == nil {
			t.Fatal("calibration over a negative horizon succeeded")
		}
		if runs.Value() != before || s.evidence.Len() != kept {
			t.Fatalf("a failed calibration left a trace: %d runs, %d keys kept", runs.Value()-before, s.evidence.Len()-kept)
		}
		s.cfg.CalibrationSimSeconds = calibSeconds
		if resp := predict(req); !resp.Cold {
			t.Error("retry after the failure did not calibrate")
		}
		if got := runs.Value() - before; got != 1 {
			t.Errorf("retry after the failure ran the simulator %d times, want 1", got)
		}
	})

	// No knob bounds the evidence table because the key does: whatever
	// float a payload carries, the mix lands on one of 1 001 values.
	t.Run("bounded by key quantisation", func(t *testing.T) {
		mixes := map[int]bool{}
		for i := 0; i <= 100_000; i++ {
			mixes[makeKey("hybrid", "AppServS", float64(i)/1000).buyPctTenth] = true
		}
		if len(mixes) != 1001 {
			t.Fatalf("buy_pct in [0,100] quantises to %d mixes, want 1001", len(mixes))
		}
		simulated := 0
		for _, mt := range methods {
			if mt.build != nil {
				simulated++
			}
		}
		bound := len(s.cfg.Archs) * len(mixes) * simulated

		bases := []float64{0.2, 12.5, 50, 99.9}
		before := s.evidence.Len()
		for i := 0; i < 200; i++ {
			jitter := 0.04 * math.Sin(float64(i)) // stays inside the base's tenth
			predict(PredictRequest{Arch: "AppServS", Clients: 100, BuyPct: bases[i%len(bases)] + jitter, Percentile: 0.9})
		}
		if got := s.evidence.Len() - before; got != len(bases) {
			t.Errorf("200 jittered mixes around %d values kept %d keys of evidence", len(bases), got)
		}
		if got := s.evidence.Len(); got > bound {
			t.Errorf("evidence table holds %d keys, over its bound %d", got, bound)
		}
	})
}
