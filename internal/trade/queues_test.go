package trade

import (
	"testing"

	"perfpred/internal/sim"
	"perfpred/internal/workload"
)

// queueConfig is a single-engine run with a three-server tier, so four
// stations share one engine.
func queueConfig() Config {
	return Config{
		Servers:      []workload.ServerArch{workload.AppServS(), workload.AppServF(), workload.AppServVF()},
		DB:           workload.CaseStudyDB(),
		Demands:      workload.CaseStudyDemands(),
		Load:         workload.MixedWorkload(600, 0.25),
		Seed:         17,
		WarmUp:       10,
		Duration:     60,
		MaxRTSamples: 64,
	}
}

// checkQueueCounts asserts that the engines popped every station
// completion from the heap and everything else from the calendar, and
// bounds the calendar events scanned per fired event.
func checkQueueCounts(t *testing.T, label string, engs []*sim.Engine, pools []*simulator, maxScanned float64) {
	t.Helper()
	var fired, firings uint64
	var qc sim.QueueCounts
	for _, e := range engs {
		fired += e.Fired()
		c := e.QueueCounts()
		qc.CalendarPops += c.CalendarPops
		qc.HeapPops += c.HeapPops
		qc.Scanned += c.Scanned
	}
	for _, p := range pools {
		firings += p.dbCPU.Firings()
		for _, app := range p.apps {
			firings += app.cpu.Firings()
		}
	}
	if firings == 0 || firings == fired {
		t.Fatalf("%s: %d station completions among %d events: nothing to tell apart", label, firings, fired)
	}
	if qc.HeapPops != firings {
		t.Errorf("%s: %d heap pops, want the %d station completions", label, qc.HeapPops, firings)
	}
	if qc.CalendarPops != fired-firings {
		t.Errorf("%s: %d calendar pops, want the %d timer events fired", label, qc.CalendarPops, fired-firings)
	}
	perFired := float64(qc.Scanned) / float64(fired)
	t.Logf("%s: %d events, %.0f %% station completions, %.2f calendar events scanned per fired event",
		label, fired, 100*float64(firings)/float64(fired), perFired)
	if perFired > maxScanned {
		t.Errorf("%s: %.2f calendar events scanned per fired event, want <= %v", label, perFired, maxScanned)
	}
}

// The count gate behind the calendar engine's speed: a station's
// completion is the one event that moves (reschedule, on every Submit
// and every completion), so it lives in the heap, and the calendar
// holds only events scheduled once — think timers, database
// latencies, cross-shard deliveries. The simulator cancels nothing, so
// every pop fires. Counts, not times, so it gates on any machine.
//
// The scan bounds sit midway between the two designs, measured on
// these configurations: with every event in the calendar, its dequeue
// search looked at 3.56 events per fired event on the single engine
// and 4.90 on the fleet; with completions in the heap, 1.22 and 2.40.
func TestStationCompletionsPopFromHeap(t *testing.T) {
	cfg := queueConfig()
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	s := newSimulator(cfg, simOptions{})
	s.eng.Run(cfg.WarmUp, 0)
	s.beginMeasurement()
	s.eng.Run(cfg.WarmUp+cfg.Duration, 0)
	checkQueueCounts(t, "single engine", []*sim.Engine{s.eng}, []*simulator{s}, 2.4)

	r, err := NewSharded(shardedConfig(4, 2, 5))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.Advance(30)
	engs := []*sim.Engine{r.coord.Shard(0).Eng, r.coord.Shard(1).Eng}
	checkQueueCounts(t, "sharded fleet", engs, r.pools, 3.6)
}
