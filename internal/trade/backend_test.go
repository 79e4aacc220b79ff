package trade

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"perfpred/internal/sim"
	"perfpred/internal/workload"
)

// Single-engine runs are built on the calendar queue; the binary heap
// is the ordering oracle. onHeap selects it through the constructor
// seam, so one Config can run on both.
var onHeap = simOptions{newEngine: sim.NewEngine}

func bitsDiffer(a, b float64) bool { return math.Float64bits(a) != math.Float64bits(b) }

// sameRun requires two results to be the same run: as many events, the
// headline statistics equal bit for bit, and everything else (per-class
// sample buffers, per-server and per-operation records) deeply equal.
func sameRun(t *testing.T, heap, cal *Result) {
	t.Helper()
	if heap.EventsFired != cal.EventsFired {
		t.Errorf("EventsFired: heap %d, calendar %d", heap.EventsFired, cal.EventsFired)
	}
	for _, f := range []struct {
		name      string
		heap, cal float64
	}{
		{"MeanRT", heap.MeanRT, cal.MeanRT},
		{"Throughput", heap.Throughput, cal.Throughput},
		{"AppUtilization", heap.AppUtilization, cal.AppUtilization},
		{"DBUtilization", heap.DBUtilization, cal.DBUtilization},
		{"MeanAppSlotsHeld", heap.MeanAppSlotsHeld, cal.MeanAppSlotsHeld},
		{"MeanAppQueue", heap.MeanAppQueue, cal.MeanAppQueue},
		{"CacheMissRate", heap.CacheMissRate, cal.CacheMissRate},
	} {
		if bitsDiffer(f.heap, f.cal) {
			t.Errorf("%s: heap %v, calendar %v", f.name, f.heap, f.cal)
		}
	}
	for name, hc := range heap.PerClass {
		cc := cal.PerClass[name]
		if len(hc.Samples) != len(cc.Samples) {
			t.Errorf("class %s: %d samples on the heap, %d on the calendar", name, len(hc.Samples), len(cc.Samples))
			continue
		}
		for i := range hc.Samples {
			if bitsDiffer(hc.Samples[i], cc.Samples[i]) {
				t.Errorf("class %s sample %d: heap %v, calendar %v", name, i, hc.Samples[i], cc.Samples[i])
				break
			}
		}
	}
	if !reflect.DeepEqual(heap, cal) {
		t.Errorf("results differ:\nheap     %+v\ncalendar %+v", heap, cal)
	}
}

// TestBackendsAgree is the differential test behind moving every
// single-engine run from the heap to the calendar queue: the public
// entry points (calendar) against the same Config on the heap, across
// the populations and model variants the experiments use.
func TestBackendsAgree(t *testing.T) {
	base := func(load workload.Workload) Config {
		return Config{
			Server:   workload.AppServF(),
			DB:       workload.CaseStudyDB(),
			Demands:  workload.CaseStudyDemands(),
			Load:     load,
			Seed:     53,
			WarmUp:   10,
			Duration: 60,
		}
	}
	with := func(cfg Config, set func(*Config)) Config {
		set(&cfg)
		return cfg
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"1 client", base(workload.TypicalWorkload(1))},
		{"40 clients", base(workload.TypicalWorkload(40))},
		{"1500 clients", base(workload.TypicalWorkload(1500))},
		{"mixed classes", base(workload.MixedWorkload(900, 0.25))},
		{"cache", with(base(workload.TypicalWorkload(400)), func(c *Config) {
			c.Cache = &CacheConfig{SizeBytes: 400 * 4096 / 3, SessionBytesMean: 4096}
		})},
		{"critical section", with(base(workload.TypicalWorkload(1100)), func(c *Config) {
			c.CriticalSection = &CriticalSectionConfig{MeanTime: 0.010, Fraction: 0.30}
		})},
		{"detailed operations", with(base(workload.MixedWorkload(600, 0.25)), func(c *Config) {
			c.DetailedOperations = true
		})},
		{"open stream", openConfig(80, 300)},
		{"scenario cohorts", scenarioConfig(fleetScenario(t))},
	}
	for _, routing := range []RoutingPolicy{RouteSticky, RouteRoundRobin, RouteLeastBusy} {
		cases = append(cases, struct {
			name string
			cfg  Config
		}{"tier/" + string(routing), with(base(workload.TypicalWorkload(3600)), func(c *Config) {
			c.Servers = workload.CaseStudyServers()
			c.Routing = routing
		})})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			heap, err := run(tc.cfg, onHeap)
			if err != nil {
				t.Fatal(err)
			}
			cal, err := Run(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if cal.Throughput <= 0 {
				t.Fatal("empty run")
			}
			sameRun(t, heap, cal)
		})
	}
	t.Run("TransientCurve", func(t *testing.T) { // the cold-start transient, in Windows
		cfg := base(workload.TypicalWorkload(1900))
		heap, err := windows(cfg, 5, onHeap)
		if err != nil {
			t.Fatal(err)
		}
		cal, err := Windows(cfg, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(heap) != 12 || len(cal) != len(heap) {
			t.Fatalf("%d windows on the heap, %d on the calendar, want 12", len(heap), len(cal))
		}
		for i := range heap {
			if heap[i].Completed != cal[i].Completed || bitsDiffer(heap[i].MeanRT, cal[i].MeanRT) {
				t.Fatalf("window %d: heap %+v, calendar %+v", i, heap[i], cal[i])
			}
		}
	})
}

// BenchmarkRunBackend is the small-N crossover between the two
// scheduler backends on the run the experiments make: AppServF under
// the typical workload, the paper-repro window. Pending events ≈
// clients. EXPERIMENTS.md records the table.
func BenchmarkRunBackend(b *testing.B) {
	for _, be := range []struct {
		name string
		opt  simOptions
	}{{"heap", onHeap}, {"calendar", simOptions{}}} {
		for _, clients := range []int{10, 100, 1000, 4000} {
			b.Run(fmt.Sprintf("%s/clients=%d", be.name, clients), func(b *testing.B) {
				cfg := baseConfig(workload.AppServF(), workload.TypicalWorkload(clients), MeasureOptions{Seed: 17, WarmUp: 30, Duration: 120})
				var events uint64
				for i := 0; i < b.N; i++ {
					res, err := run(cfg, be.opt)
					if err != nil {
						b.Fatal(err)
					}
					events += res.EventsFired
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
			})
		}
	}
}
