package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"
)

func TestNilSafety(t *testing.T) {
	// Every metric method must be a no-op on a nil receiver, and a nil
	// registry must hand out nil metrics.
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter must read 0")
	}
	var g *Gauge
	g.Add(-1)
	if g.Value() != 0 {
		t.Fatal("nil gauge must read 0")
	}
	var m *MaxGauge
	m.Observe(7)
	if m.value() != 0 {
		t.Fatal("nil max gauge must read 0")
	}
	var h *Histogram
	h.Observe(1.5)
	if h.count() != 0 || h.sum() != 0 {
		t.Fatal("nil histogram must read 0")
	}

	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.MaxGauge("x") != nil || r.Histogram("x", 1) != nil {
		t.Fatal("nil registry must return nil metrics")
	}
	s := r.Snapshot()
	if len(s.Counters) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
}

func TestRegisterOrGet(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("hits")
	b := r.Counter("hits")
	if a != b {
		t.Fatal("Counter must return the same instance per name")
	}
	h1 := r.Histogram("lat", 1, 2, 3)
	h2 := r.Histogram("lat", 99) // bounds ignored on re-get
	if h1 != h2 {
		t.Fatal("Histogram must return the same instance per name")
	}
	if len(h1.bounds) != 3 {
		t.Fatal("first registration's bounds must win")
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := newHistogram(1, 10, 100)
	for _, v := range []float64{0.5, 1, 5, 10, 50, 100, 500} {
		h.Observe(v)
	}
	h.Observe(math.NaN()) // dropped
	want := []uint64{2, 2, 2}
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Fatalf("bucket %d: got %d want %d", i, got, w)
		}
	}
	if of := h.counts[3].Load(); of != 1 {
		t.Fatalf("overflow: got %d want 1", of)
	}
	if h.count() != 7 {
		t.Fatalf("count: got %d want 7", h.count())
	}
	if math.Abs(h.sum()-666.5) > 1e-9 {
		t.Fatalf("sum: got %v want 666.5", h.sum())
	}
}

func TestMaxGauge(t *testing.T) {
	var m MaxGauge
	m.Observe(5)
	m.Observe(3)
	m.Observe(9)
	if m.value() != 9 {
		t.Fatalf("got %d want 9", m.value())
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(2)
	r.Gauge("b").Add(-4)
	r.MaxGauge("c").Observe(11)
	h := r.Histogram("d_seconds", 0.1, 1)
	h.Observe(0.05)
	h.Observe(5)

	var buf bytes.Buffer
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("snapshot must round-trip JSON: %v", err)
	}
	if back.Counters["a"] != 2 || back.Gauges["b"] != -4 || back.MaxGauges["c"] != 11 {
		t.Fatalf("scalar values lost: %+v", back)
	}
	hs := back.Histograms["d_seconds"]
	if hs.Count != 2 || hs.Overflow != 1 || len(hs.Buckets) != 2 {
		t.Fatalf("histogram snapshot wrong: %+v", hs)
	}
}

func TestWriteText(t *testing.T) {
	r := NewRegistry()
	r.Counter("zeta").Inc()
	r.Counter("alpha").Add(3)
	r.Histogram("lat_seconds", 0.5).Observe(0.2)
	var buf bytes.Buffer
	if err := r.Snapshot().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "alpha 3\n") || !strings.Contains(out, "zeta 1\n") {
		t.Fatalf("missing counter lines:\n%s", out)
	}
	if strings.Index(out, "alpha") > strings.Index(out, "zeta") {
		t.Fatalf("output must be sorted by name:\n%s", out)
	}
	if !strings.Contains(out, `lat_seconds_bucket{le="+Inf"} 0`) {
		t.Fatalf("missing +Inf bucket line:\n%s", out)
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("n")
			h := r.Histogram("v", 0.5, 1.0)
			m := r.MaxGauge("hw")
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(float64(i%3) / 2)
				m.Observe(int64(w*per + i))
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("n").Value(); got != workers*per {
		t.Fatalf("counter lost updates: got %d want %d", got, workers*per)
	}
	if got := r.Histogram("v").count(); got != workers*per {
		t.Fatalf("histogram lost updates: got %d want %d", got, workers*per)
	}
	if got := r.MaxGauge("hw").value(); got != workers*per-1 {
		t.Fatalf("max gauge wrong: got %d want %d", got, workers*per-1)
	}
	perWorkerSum := 0.0
	for i := 0; i < per; i++ {
		perWorkerSum += float64(i%3) / 2
	}
	if sum := r.Histogram("v").sum(); math.Abs(sum-float64(workers)*perWorkerSum) > 1e-6 {
		t.Fatalf("histogram sum lost updates: got %v want %v", sum, float64(workers)*perWorkerSum)
	}
}

func TestHotPathZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	m := r.MaxGauge("m")
	h := r.Histogram("h", 1, 2, 3, 4, 5)
	var nilC *Counter
	var nilH *Histogram
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Add(2)
		m.Observe(42)
		h.Observe(2.5)
		nilC.Inc()
		nilH.Observe(1)
	})
	if allocs != 0 {
		t.Fatalf("metric hot path allocates: %v allocs/op", allocs)
	}
}

func TestServeEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("probe_hits").Add(7)
	addr, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	get := func(path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if out := get("/metrics"); !strings.Contains(out, "probe_hits 7") {
		t.Fatalf("/metrics missing counter:\n%s", out)
	}
	var vars map[string]any
	if err := json.Unmarshal([]byte(get("/debug/vars")), &vars); err != nil {
		t.Fatalf("/debug/vars not JSON: %v", err)
	}
	if out := get("/debug/pprof/"); !strings.Contains(out, "profile") {
		t.Fatalf("/debug/pprof/ index unexpected:\n%s", out)
	}
}

func TestWriteReport(t *testing.T) {
	r := NewRegistry()
	r.Counter("done").Inc()
	path := t.TempDir() + "/report.json"
	if err := WriteReport(path, r); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatalf("report must parse: %v", err)
	}
	if s.Counters["done"] != 1 {
		t.Fatalf("report lost counter: %+v", s)
	}
}

var (
	testCounter   = DeclareCounter("test_counter")
	testGauge     = DeclareGauge("test_gauge")
	testHighWater = DeclareMaxGauge("test_high_water")
	testSeconds   = DeclareHistogram("test_seconds", 1, 2, 3)
)

// Declared handles record only while bound, into the registry Bind was
// last given; an unbound stage timer takes no clock reading, and a
// bound handle's update allocates nothing.
func TestDeclaredHandlesFollowBind(t *testing.T) {
	bump := func() {
		testCounter.Inc()
		testCounter.Add(2)
		testGauge.Add(5)
		testHighWater.Observe(7)
		testSeconds.Observe(1.5)
		testSeconds.ObserveSince(testSeconds.Start())
	}
	bump() // unbound: discarded
	if testCounter.Bound() || !testSeconds.Start().IsZero() {
		t.Fatal("a handle reads as bound before Bind")
	}

	r := NewRegistry()
	Bind(r)
	defer Bind(nil)
	if a := testing.AllocsPerRun(100, bump); a != 0 {
		t.Fatalf("bound handles allocate %v times per update round", a)
	}
	s := r.Snapshot()
	if got := s.Counters["test_counter"]; got != 3*101 {
		t.Errorf("test_counter = %d, want %d", got, 3*101)
	}
	if got := s.Gauges["test_gauge"]; got != 5*101 {
		t.Errorf("test_gauge = %d, want %d", got, 5*101)
	}
	if got := s.MaxGauges["test_high_water"]; got != 7 {
		t.Errorf("test_high_water = %d, want 7", got)
	}
	if h := s.Histograms["test_seconds"]; h.Count != 2*101 || len(h.Bounds) != 3 || h.Buckets[1] != 101 {
		t.Errorf("test_seconds = %+v, want 202 observations, 101 of them in (1, 2]", h)
	}

	Bind(nil)
	bump()
	if got := r.Snapshot().Counters["test_counter"]; got != 3*101 || testCounter.Bound() {
		t.Errorf("test_counter moved to %d after Bind(nil)", got)
	}
	Bind(r) // rebinding to the same registry resumes its metrics
	testCounter.Inc()
	if got := r.Counter("test_counter").Value(); got != 3*101+1 {
		t.Errorf("test_counter = %d after rebinding, want %d", got, 3*101+1)
	}
}
