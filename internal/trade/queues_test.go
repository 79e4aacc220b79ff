package trade

import (
	"testing"

	"perfpred/internal/sim"
	"perfpred/internal/workload"
)

// queueConfig is a one-pool run with a three-server tier, so four
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
// returns the calendar events scanned per fired event and per calendar
// pop.
func checkQueueCounts(t *testing.T, label string, engs []*sim.Engine, pools []*simulator) (perFired, perPop float64) {
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
	perFired = float64(qc.Scanned) / float64(fired)
	perPop = float64(qc.Scanned) / float64(qc.CalendarPops)
	t.Logf("%s: %d events, %.0f %% station completions, %.2f calendar events scanned per fired event, %.2f per calendar pop",
		label, fired, 100*float64(firings)/float64(fired), perFired, perPop)
	return perFired, perPop
}

// The count gate behind the calendar engine's speed: a station's
// completion is the one event that moves (reschedule, on every Submit
// and every completion), so it lives in the heap, and the calendar
// holds only events scheduled once — think timers, database
// latencies, cross-shard deliveries. The simulator cancels nothing, so
// every pop fires. Counts, not times, so it gates on any machine.
//
// The scan bounds sit midway between the two designs, measured on
// these configurations. A calendar that bucketed each push as it came,
// at a width fitted to the whole time spread until a rate re-fit,
// looked at 1.22 events per fired event on one pool, 2.40 on
// the windowed fleet and 19.31 per calendar pop on the static fleet,
// whose pools never re-fit; laid out on first read at a width fitted
// to the head of the schedule, 0.60, 0.90 and 3.23. (With every event
// in the calendar, station completions too, the first two read 3.56
// and 4.90.)
func TestStationCompletionsPopFromHeap(t *testing.T) {
	cfg := queueConfig()
	s := onePool(t, cfg)
	s.eng.Run(cfg.WarmUp, 0)
	s.beginMeasurement()
	s.eng.Run(cfg.WarmUp+cfg.Duration, 0)
	if perFired, _ := checkQueueCounts(t, "one pool", []*sim.Engine{s.eng}, []*simulator{s}); perFired > 0.9 {
		t.Errorf("one pool: %.2f calendar events scanned per fired event, want <= 0.9", perFired)
	}

	r, err := NewSharded(shardedConfig(4, 2, 5))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.Advance(30)
	engs := []*sim.Engine{r.coord.Shard(0).Eng, r.coord.Shard(1).Eng}
	if perFired, _ := checkQueueCounts(t, "sharded fleet", engs, r.pools); perFired > 1.65 {
		t.Errorf("sharded fleet: %.2f calendar events scanned per fired event, want <= 1.65", perFired)
	}

	// A barrier-free static fleet runs each pool on an engine of its
	// own, whose few hundred pops never reach a rate re-fit.
	cfg = shardedConfig(8, 2, 0)
	cfg.Load = workload.MixedWorkload(400, 0.1)
	st, err := NewSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.Advance(16)
	engs = engs[:0]
	for i := 0; i < st.coord.Shards(); i++ {
		engs = append(engs, st.coord.Shard(i).Eng)
	}
	if _, perPop := checkQueueCounts(t, "static fleet", engs, st.pools); perPop > 11 {
		t.Errorf("static fleet: %.2f calendar events scanned per calendar pop, want <= 11", perPop)
	}
}
