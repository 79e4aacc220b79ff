package workload

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDemandValidate(t *testing.T) {
	good := Demand{AppServerTime: 0.005, DBTimePerCall: 0.0008, DBCallsPerRequest: 1.14}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []Demand{
		{AppServerTime: 0, DBTimePerCall: 0.001, DBCallsPerRequest: 1},
		{AppServerTime: 0.01, DBTimePerCall: -1, DBCallsPerRequest: 1},
		{AppServerTime: 0.01, DBTimePerCall: 0.001, DBCallsPerRequest: -1},
	}
	for i, d := range cases {
		if err := d.Validate(); err == nil {
			t.Fatalf("case %d: expected validation error", i)
		}
	}
}

func TestDemandTotalDBTime(t *testing.T) {
	d := Demand{AppServerTime: 1, DBTimePerCall: 0.0008294, DBCallsPerRequest: 1.14}
	want := 0.0008294 * 1.14
	if got := d.TotalDBTime(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("TotalDBTime = %v, want %v", got, want)
	}
}

func TestMixValidate(t *testing.T) {
	if err := (Mix{Browse: 0.9, Buy: 0.1}).validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Mix{}).validate(); err == nil {
		t.Fatal("empty mix should fail")
	}
	if err := (Mix{Browse: 0.5}).validate(); err == nil {
		t.Fatal("non-unit sum should fail")
	}
	if err := (Mix{Browse: 1.5, Buy: -0.5}).validate(); err == nil {
		t.Fatal("negative fraction should fail")
	}
	if got := (Mix{Browse: 1}).Fraction(Buy); got != 0 {
		t.Fatalf("missing type fraction = %v, want 0", got)
	}
}

func TestServiceClassValidate(t *testing.T) {
	c := BrowseClass(0.3)
	if err := c.validate(); err != nil {
		t.Fatal(err)
	}
	c.Name = ""
	if err := c.validate(); err == nil {
		t.Fatal("unnamed class should fail")
	}
	c = BrowseClass(0.3)
	c.ThinkTimeMean = -1
	if err := c.validate(); err == nil {
		t.Fatal("negative think time should fail")
	}
	c = BrowseClass(0.3)
	c.GoalPercentile = 1.2
	if err := c.validate(); err == nil {
		t.Fatal("percentile >= 1 should fail")
	}
	c.GoalPercentile = 0.9
	if err := c.validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWorkloadAggregates(t *testing.T) {
	w := MixedWorkload(1000, 0.10)
	if got := w.TotalClients(); got != 1000 {
		t.Fatalf("TotalClients = %d, want 1000", got)
	}
	if w[0].Class.Name != "buy" || w[0].Clients != 100 {
		t.Fatalf("buy population = %s × %d, want buy × 100", w[0].Class.Name, w[0].Clients)
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Workload{{Class: BrowseClass(0), Clients: -5}}
	if err := bad.Validate(); err == nil {
		t.Fatal("negative clients should fail")
	}
	var empty Workload
	if empty.TotalClients() != 0 {
		t.Fatal("empty workload aggregates should be zero")
	}
}

func TestTypicalWorkload(t *testing.T) {
	w := TypicalWorkload(500)
	if w.TotalClients() != 500 {
		t.Fatalf("clients = %d", w.TotalClients())
	}
	if got := w[0].Class.Mix.Fraction(Browse); len(w) != 1 || got != 1 {
		t.Fatalf("typical workload: %d classes, browse fraction %v; want one all-browse class", len(w), got)
	}
	if w[0].Class.ThinkTimeMean != ThinkTimeMean {
		t.Fatalf("think time = %v, want %v", w[0].Class.ThinkTimeMean, ThinkTimeMean)
	}
}

func TestCaseStudyServers(t *testing.T) {
	servers := CaseStudyServers()
	if len(servers) != 3 {
		t.Fatalf("got %d servers", len(servers))
	}
	wantMax := []float64{86, 186, 320}
	wantEst := []bool{false, true, true}
	for i, s := range servers {
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		if s.MaxThroughputTypical != wantMax[i] {
			t.Fatalf("%s max throughput = %v, want %v", s.Name, s.MaxThroughputTypical, wantMax[i])
		}
		if s.Established != wantEst[i] {
			t.Fatalf("%s established = %v", s.Name, s.Established)
		}
		if s.MPL != AppServerMPL {
			t.Fatalf("%s MPL = %d", s.Name, s.MPL)
		}
	}
	// Speed ratios must mirror max-throughput ratios: the paper's
	// request-processing-speed benchmark (§5).
	f := AppServF()
	for _, s := range servers {
		wantSpeed := s.MaxThroughputTypical / f.MaxThroughputTypical
		if math.Abs(s.Speed-wantSpeed) > 1e-9 {
			t.Fatalf("%s speed = %v, want %v", s.Name, s.Speed, wantSpeed)
		}
	}
}

func TestCaseStudyDemands(t *testing.T) {
	d := CaseStudyDemands()
	browse, buy := d[Browse], d[Buy]
	if err := browse.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := buy.Validate(); err != nil {
		t.Fatal(err)
	}
	// The reference server saturates at 186 req/s on browse.
	if got := 1 / browse.AppServerTime; math.Abs(got-186) > 1e-6 {
		t.Fatalf("browse app rate = %v, want 186", got)
	}
	// Table 2 ratios: buy/browse app time 8.761/4.505, calls 2 vs 1.14.
	ratio := buy.AppServerTime / browse.AppServerTime
	if math.Abs(ratio-8.761/4.505) > 1e-9 {
		t.Fatalf("buy/browse demand ratio = %v", ratio)
	}
	if browse.DBCallsPerRequest != 1.14 || buy.DBCallsPerRequest != 2 {
		t.Fatal("db calls per request do not match Table 2")
	}
}

func TestServerAndDBValidate(t *testing.T) {
	if err := CaseStudyDB().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []ServerArch{
		{Name: "", Speed: 1, MPL: 1, MaxThroughputTypical: 1},
		{Name: "x", Speed: 0, MPL: 1, MaxThroughputTypical: 1},
		{Name: "x", Speed: 1, MPL: 0, MaxThroughputTypical: 1},
		{Name: "x", Speed: 1, MPL: 1, MaxThroughputTypical: 0},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Fatalf("server case %d should fail", i)
		}
	}
	badDB := []DBServer{
		{Name: "", Speed: 1, MPL: 1},
		{Name: "x", Speed: 0, MPL: 1},
		{Name: "x", Speed: 1, MPL: 0},
	}
	for i, d := range badDB {
		if err := d.Validate(); err == nil {
			t.Fatalf("db case %d should fail", i)
		}
	}
}

// Property: MixedWorkload always conserves the total client count and
// gives the buy class its share, rounded to the nearest client.
func TestMixedWorkloadConservesClientsProperty(t *testing.T) {
	f := func(clients int, buyFrac float64) bool {
		clients = int(math.Abs(float64(clients%100000))) + 1
		buyFrac = math.Mod(math.Abs(buyFrac), 1)
		w := MixedWorkload(clients, buyFrac)
		if w.TotalClients() != clients {
			return false
		}
		buy := w[0].Clients
		return buy >= 0 && buy <= clients && math.Abs(float64(buy)-float64(clients)*buyFrac) <= 0.5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestServerByName(t *testing.T) {
	for _, name := range []string{"AppServS", "AppServF", "AppServVF"} {
		s, err := ServerByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if s.Name != name {
			t.Fatalf("got %q", s.Name)
		}
	}
	if _, err := ServerByName("AppServX"); err == nil {
		t.Fatal("unknown server should fail")
	}
}
