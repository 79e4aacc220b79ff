package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
)

// nonFiniteProbes are GET queries whose numbers strconv.ParseFloat
// accepts and no range check catches (every comparison with NaN is
// false): each used to answer 200 with an empty body — the encoder
// refused the non-finite answer after the header had gone — except
// buy_pct=NaN, a 500 out of int(NaN) in makeKey. The last is finite but
// overflows int: it used to answer 200 with one client's response time.
var nonFiniteProbes = []struct{ path, query, want string }{
	{"/v1/predict", "clients=NaN", "bad clients: NaN"},
	{"/v1/predict", "clients=Inf", "bad clients: Inf"},
	{"/v1/predict", "clients=Inf&method=lqn", "bad clients: Inf"},
	{"/v1/predict", "clients=100&percentile=NaN", "bad percentile: NaN"},
	{"/v1/predict", "clients=100&buy_pct=NaN", "bad buy_pct: NaN"},
	{"/v1/capacity", "goal_rt_s=NaN", "bad goal_rt_s: NaN"},
	{"/v1/capacity", "goal_rt_s=Inf", "bad goal_rt_s: Inf"},
	{"/v1/capacity", "goal_rt_s=Inf&method=lqn", "bad goal_rt_s: Inf"},
	{"/v1/predict", "clients=1e19&method=lqn", "clients 1e+19 is beyond the model's range"},
}

// get drives the handler in-process. The request is assembled by hand:
// httptest.NewRequest panics on a query it cannot parse, and the fuzz
// target sends those too.
func get(h http.Handler, path, rawQuery string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, &http.Request{Method: http.MethodGet, URL: &url.URL{Path: path, RawQuery: rawQuery}})
	return rec
}

// Non-finite numbers are rejected where they are parsed: a 400 naming
// the first such parameter in queryParams order.
func TestNonFiniteQueryParametersRejected(t *testing.T) {
	h := newTestService(t, nil).Handler()
	for _, p := range nonFiniteProbes {
		rec := get(h, p.path, "arch=AppServF&"+p.query)
		var e errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
			t.Errorf("%s?%s: status %d, body %q: %v", p.path, p.query, rec.Code, rec.Body, err)
			continue
		}
		if rec.Code != http.StatusBadRequest || e.Error != p.want {
			t.Errorf("%s?%s: %d %q, want 400 %q", p.path, p.query, rec.Code, e.Error, p.want)
		}
	}
	// Several at once: clients comes before percentile in queryParams.
	rec := get(h, "/v1/predict", "arch=AppServF&percentile=NaN&clients=-Inf")
	if want := `{"error":"bad clients: -Inf"}` + "\n"; rec.Code != http.StatusBadRequest || rec.Body.String() != want {
		t.Errorf("two non-finite parameters: %d %q, want 400 %q", rec.Code, rec.Body, want)
	}
	// The POST path cannot carry these: JSON has no literal for them and
	// encoding/json refuses the body.
	for _, body := range []string{`{"arch":"AppServF","clients":NaN}`, `{"arch":"AppServF","clients":1e999}`} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(body)))
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "bad JSON body") {
			t.Errorf("POST %s: %d %q, want 400 bad JSON body", body, rec.Code, rec.Body)
		}
	}
}

// A value the encoder refuses is a 500 with an error body, decided
// before the header is sent — never a bare 200.
func TestWriteJSONEncodesBeforeStatus(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, PredictResponse{ResponseTimeS: math.Inf(1)})
	var e errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" || rec.Code != http.StatusInternalServerError {
		t.Fatalf("unencodable value: %d %q (%v), want 500 with an error body", rec.Code, rec.Body, err)
	}
}

// FuzzQueryHandlers throws arbitrary GET queries at /v1/predict and
// /v1/capacity. LaplaceB is pinned, the architecture is fixed (the
// first arch= wins) and the regress tier is skipped, so no input costs
// a simulator run: a cold key is ten layered solves. Every reply must
// carry a body that decodes — a response (whose numbers JSON can only
// hold if finite) on 200, {"error": …} otherwise; a numeric parameter
// that is malformed or non-finite must be a 400; and nothing may be a
// 500.
func FuzzQueryHandlers(f *testing.F) {
	for _, p := range nonFiniteProbes {
		f.Add(p.path == "/v1/capacity", p.query)
	}
	f.Add(false, "clients=500")
	f.Add(false, "clients=900&buy_pct=12.5&percentile=0.9")
	f.Add(false, "clients=300.4&method=lqn&deadline_ms=2000")
	f.Add(false, "clients=1e308&percentile=0.999")
	f.Add(false, "clients=10&method=tarot")
	f.Add(false, "clients=x&buy_pct=%zz;")
	f.Add(true, "goal_rt_s=0.3")
	f.Add(true, "goal_rt_s=0.25&buy_pct=25&method=lqn")
	f.Add(true, "goal_rt_s=1e308&deadline_ms=9223372036854775807")
	f.Add(true, "goal_rt_s=1e-300")

	cfg := testConfig() // pins LaplaceB
	cfg.CacheCapacity = 64
	s, err := New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Close)
	h := s.Handler()

	f.Fuzz(func(t *testing.T, capacity bool, query string) {
		path, params := "/v1/predict", []string{"clients", "buy_pct", "percentile", "deadline_ms"}
		if capacity {
			path, params = "/v1/capacity", []string{"goal_rt_s", "buy_pct", "deadline_ms"}
		}
		raw := "arch=AppServF&" + query
		q, _ := url.ParseQuery(raw) // what Request.URL.Query() sees: the pairs that parse
		if q.Get("method") == "regress" {
			t.Skip("regress trains on simulator runs")
		}
		rec := get(h, path, raw)

		switch rec.Code {
		case http.StatusOK:
			var err error
			if capacity {
				err = json.Unmarshal(rec.Body.Bytes(), new(CapacityResponse))
			} else {
				err = json.Unmarshal(rec.Body.Bytes(), new(PredictResponse))
			}
			if err != nil {
				t.Fatalf("%s?%s: 200 with body %q: %v", path, raw, rec.Body, err)
			}
		case http.StatusBadRequest, http.StatusGatewayTimeout:
			var e errorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("%s?%s: %d with body %q (%v), want an error body", path, raw, rec.Code, rec.Body, err)
			}
		default:
			t.Fatalf("%s?%s: status %d, body %q", path, raw, rec.Code, rec.Body)
		}
		for _, name := range params {
			v := q.Get(name)
			if v == "" {
				continue
			}
			if x, err := strconv.ParseFloat(v, 64); (err != nil || math.IsNaN(x) || math.IsInf(x, 0)) && rec.Code != http.StatusBadRequest {
				t.Fatalf("%s?%s: %s=%q answered %d, want 400", path, raw, name, v, rec.Code)
			}
		}
	})
}
