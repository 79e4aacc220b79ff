package trade

import (
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"perfpred/internal/obs"
	"perfpred/internal/sim"
	"perfpred/internal/workload"
)

// onePool builds cfg, a one-pool run, and returns its pool unadvanced,
// for tests that step the pool's engine themselves.
func onePool(t testing.TB, cfg Config) *simulator {
	t.Helper()
	r, err := NewSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r.pools[0]
}

// steadySim builds a one-pool run, runs it past warm-up with
// measurement on, and primes every pool (request records, station
// jobs, ring buffers, reservoir buffers) so subsequent engine advances
// exercise only the steady-state path.
func steadySim(t testing.TB, cfg Config) (*simulator, float64) {
	t.Helper()
	s := onePool(t, cfg)
	s.eng.Run(cfg.WarmUp, 0)
	s.beginMeasurement()
	until := cfg.WarmUp + 60 // fills the small reservoirs and warms all pools
	s.eng.Run(until, 0)
	return s, until
}

func allocConfig() Config {
	return Config{
		Server:       workload.AppServF(),
		DB:           workload.CaseStudyDB(),
		Demands:      workload.CaseStudyDemands(),
		Load:         workload.MixedWorkload(400, 0.25),
		Seed:         11,
		WarmUp:       10,
		Duration:     100000, // never reached; the tests advance time manually
		MaxRTSamples: 128,
	}
}

// TestSteadyStateRequestLoopZeroAlloc is the tentpole's contract: once
// the pools are primed and the reservoirs full, advancing the
// simulation — thousands of complete request lifecycles with think
// times, CPU segments and database calls — allocates nothing.
func TestSteadyStateRequestLoopZeroAlloc(t *testing.T) {
	s, until := steadySim(t, allocConfig())
	allocs := testing.AllocsPerRun(50, func() {
		until += 2
		s.eng.Run(until, 0)
	})
	if allocs != 0 {
		t.Fatalf("steady-state request loop allocates %v objects per 2 simulated seconds, want 0", allocs)
	}
}

// A request record is data only: its continuations are the pool's
// handlers, bound once, which find it by its handle. A func-typed field
// would bring a bound closure per record back, so there is none, and
// the record is 96 bytes, which makes every chunk of a pool's slot
// table (4, 8, 16, … records) an exact size class.
func TestRequestRecordSize(t *testing.T) {
	rt := reflect.TypeOf(reqState{})
	for i := 0; i < rt.NumField(); i++ {
		if f := rt.Field(i); f.Type.Kind() == reflect.Func {
			t.Errorf("reqState.%s is a %s: a record binds no closure", f.Name, f.Type)
		}
	}
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the size bound is about 64-bit layouts")
	}
	if got := unsafe.Sizeof(reqState{}); got > 96 {
		t.Fatalf("sizeof(reqState) = %d bytes, want at most 96", got)
	}
}

// A fleet builds a simulator per pool, so its size class is paid 625
// times over in the benchmark's fleets: the record table's chunk
// headers stay out of line to keep it in the 896-byte class or below.
func TestSimulatorStaysInItsSizeClass(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the size bound is about 64-bit layouts")
	}
	if got := unsafe.Sizeof(simulator{}); got > 896 {
		t.Fatalf("sizeof(simulator) = %d bytes, want at most 896: a simulator in the 1 024-byte class read fleet_static wall_s ≈ 8 %% slower (CHANGES.md, the FOUND line on a static fleet's CPU on two goroutines)", got)
	}
}

// A handle packs the issuing pool above the record's slot. Every split
// a run can choose round-trips at its extremes — a one-pool run's 31
// slot bits, and the 625- and 2 500-pool fleets' indices — another
// pool's handle less a pool's base lies past every slot (rec's test
// for a record of its own), and an index past either limit panics
// rather than aliasing another record.
func TestRecordHandlePacking(t *testing.T) {
	for _, c := range []struct {
		pools    int
		slotBits uint
	}{{1, 31}, {2, 31}, {3, 30}, {625, 22}, {2500, 20}, {4096, 20}, {4097, 19}} {
		sb := slotBitsFor(c.pools)
		if sb != c.slotBits {
			t.Fatalf("%d pools: %d slot bits, want %d", c.pools, sb, c.slotBits)
		}
		maxPool, maxSlot := 1<<(32-sb)-1, 1<<sb-1
		if maxPool < c.pools-1 {
			t.Fatalf("%d pools: %d slot bits leave pool indices up to %d", c.pools, sb, maxPool)
		}
		pools := []int{0, 1, c.pools - 1, maxPool}
		slices.Sort(pools)
		pools = slices.Compact(pools)
		slots := []int{0, 1, firstChunk - 1, firstChunk, maxSlot - 1, maxSlot}
		seen := map[int32]bool{}
		for _, pool := range pools {
			for _, slot := range slots {
				h := packHandle(pool, slot, sb)
				if p, s := unpackHandle(h, sb); p != pool || s != slot {
					t.Fatalf("%d slot bits: (pool %d, slot %d) came back as (%d, %d)", sb, pool, slot, p, s)
				}
				seen[h] = true
				for _, other := range pools {
					if off := uint32(h) - uint32(other)<<sb; (off <= uint32(maxSlot)) != (other == pool) {
						t.Fatalf("%d slot bits: pool %d's slot %d less pool %d's base is %d", sb, pool, slot, other, off)
					}
				}
			}
		}
		if len(seen) != len(pools)*len(slots) {
			t.Fatalf("%d slot bits: %d distinct handles for %d pools × %d slots", sb, len(seen), len(pools), len(slots))
		}
		for _, bad := range [][2]int{{maxPool + 1, 0}, {0, maxSlot + 1}, {-1, 0}, {0, -1}} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%d slot bits: packHandle(%d, %d) did not panic", sb, bad[0], bad[1])
					}
				}()
				packHandle(bad[0], bad[1], sb)
			}()
		}
	}
}

// A pool's records never move: a handle resolves to the record it was
// made with, by arithmetic on its slot, in its own pool and in a
// sibling alike, however far the table has grown since. Chunks double
// from 4 records, so the last and first slots of each pair below sit
// in neighbouring chunks, and a retired record is the next one handed
// out.
func TestRecordTableKeepsRecords(t *testing.T) {
	r, err := NewSharded(shardedConfig(2, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	home, sibling := r.pools[1], r.pools[0]
	var made []*reqState
	for i := 0; i < 100; i++ {
		made = append(made, home.getReq())
	}
	for i, rec := range made {
		if got := home.rec(rec.h); got != rec {
			t.Fatalf("slot %d: its pool resolves handle %#x to another record", i, rec.h)
		}
		if got := sibling.rec(rec.h); got != rec {
			t.Fatalf("slot %d: a sibling resolves handle %#x to another record", i, rec.h)
		}
		if pool, slot := unpackHandle(rec.h, home.slotBits); pool != 1 || slot != i {
			t.Fatalf("record %d has handle (pool %d, slot %d)", i, pool, slot)
		}
	}
	// Each pair is the last slot of a chunk and the first of the next.
	for _, c := range []struct{ slot, chunk, off int }{
		{3, 0, 3}, {4, 1, 0}, {11, 1, 7}, {12, 2, 0}, {27, 2, 15}, {28, 3, 0}, {59, 3, 31}, {60, 4, 0},
	} {
		want := &home.recs.groups[c.chunk/8][c.chunk%8][c.off]
		h := packHandle(1, c.slot, home.slotBits)
		if made[c.slot] != want || home.rec(h) != want || sibling.rec(h) != want {
			t.Fatalf("slot %d is not record %d of chunk %d from both pools", c.slot, c.off, c.chunk)
		}
	}
	if sizes := chunkSizes(&home.recs); !slices.Equal(sizes, []int{4, 8, 16, 32, 64}) || home.recs.n != 100 {
		t.Fatalf("100 records: %d slots in chunks of %v, want chunks of 4, 8, 16, 32 and 64", home.recs.n, sizes)
	}
	if home.recs.groups[1] != nil || sibling.recs.groups[0] != nil {
		t.Fatal("a table holds a group of chunk headers before its first chunk is made")
	}
	home.putReq(made[17])
	if got := home.getReq(); got != made[17] || home.recs.n != 100 || home.recs.reused != 1 {
		_, slot := unpackHandle(got.h, home.slotBits)
		t.Fatalf("after retiring slot 17 the next record is slot %d (%d made, %d reused)", slot, home.recs.n, home.recs.reused)
	}
}

// chunkSizes lists the lengths of a record table's chunks, made ones
// only.
func chunkSizes(t *recTable) []int {
	var sizes []int
	for _, g := range t.groups {
		if g == nil {
			continue
		}
		for _, c := range g {
			if len(c) > 0 {
				sizes = append(sizes, len(c))
			}
		}
	}
	return sizes
}

// TestSteadyStateZeroAllocDetailed covers the §3.1 operation-level
// workload: browse operation picks and buy-session advancement must
// stay pooled too.
func TestSteadyStateZeroAllocDetailed(t *testing.T) {
	cfg := allocConfig()
	cfg.DetailedOperations = true
	s, until := steadySim(t, cfg)
	allocs := testing.AllocsPerRun(50, func() {
		until += 2
		s.eng.Run(until, 0)
	})
	if allocs != 0 {
		t.Fatalf("detailed-operations request loop allocates %v objects per 2 simulated seconds, want 0", allocs)
	}
}

// TestSteadyStateZeroAllocWithMetrics repeats the zero-alloc contract
// with the observability layer registered and enabled: hot-path
// instrumentation uses plain per-instance counters flushed in bulk, so
// enabling metrics must not cost a single allocation per advance.
func TestSteadyStateZeroAllocWithMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	obs.Bind(reg)
	defer obs.Bind(nil)
	s, until := steadySim(t, allocConfig())
	allocs := testing.AllocsPerRun(50, func() {
		until += 2
		s.eng.Run(until, 0)
	})
	if allocs != 0 {
		t.Fatalf("metrics-enabled request loop allocates %v objects per 2 simulated seconds, want 0", allocs)
	}
	// The flush path (collect) must not allocate either, beyond what
	// collect itself already does — and it must actually publish.
	if res := collect([]*simulator{s}, s.cfg.Duration, s.eng.Fired()); res.Throughput <= 0 {
		t.Fatal("empty collection")
	}
	snap := reg.Snapshot()
	if snap.Counters["trade_requests_completed"] == 0 {
		t.Fatal("metrics enabled but trade_requests_completed stayed zero after collect")
	}
}

func BenchmarkRequestLoop(b *testing.B) {
	s, until := steadySim(b, allocConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		until++
		s.eng.Run(until, 0) // one simulated second ≈ 115 requests
	}
}

func BenchmarkCollect(b *testing.B) {
	s, _ := steadySim(b, allocConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := collect([]*simulator{s}, s.cfg.Duration, s.eng.Fired()); res.Throughput <= 0 {
			b.Fatal("empty collection")
		}
	}
}

func BenchmarkWindows(b *testing.B) {
	cfg := Config{
		Server:   workload.AppServF(),
		DB:       workload.CaseStudyDB(),
		Demands:  workload.CaseStudyDemands(),
		Load:     workload.TypicalWorkload(800),
		Seed:     7,
		Duration: 60,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Windows(cfg, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// buildCost returns the least bytes and the least mallocs that three
// calls of f allocate. A stray runtime allocation can only add to
// either, so the least is the build's own.
func buildCost(f func() any) (bytes, mallocs uint64) {
	bytes, mallocs = math.MaxUint64, math.MaxUint64
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		keep := f()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(keep)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		mallocs = min(mallocs, after.Mallocs-before.Mallocs)
	}
	return bytes, mallocs
}

// TestClosedClientBytes pins what one closed client costs at
// construction: nothing but its pending think event, whose argument
// is the client's index, with no per-client array a fleet
// configuration does not read (sticky homes on a one-server tier, buy
// sessions without detailed operations, session sizes without a
// cache). That event belongs to the engine, so the bytes an engine
// spends on the same number of bare events are subtracted; differencing
// two client counts cancels the fixed costs.
func TestClosedClientBytes(t *testing.T) {
	build := func(n int) uint64 {
		cfg := allocConfig()
		cfg.Load = workload.MixedWorkload(n, 0.1)
		bytes, _ := buildCost(func() any { return onePool(t, cfg) })
		return bytes
	}
	events := func(n int) uint64 {
		bytes, _ := buildCost(func() any {
			eng := sim.NewEngineCalendar()
			for i := 0; i < n; i++ {
				eng.Schedule(float64(i), func() {})
			}
			return eng
		})
		return bytes
	}
	const n = 4096
	perClient := (float64(build(2*n)) - float64(build(n)) - (float64(events(2*n)) - float64(events(n)))) / n
	t.Logf("%.1f bytes per closed client", perClient)
	if perClient > 8 {
		t.Fatalf("a closed client costs %.1f bytes, want ≤ 8 (its think event is all it owns)", perClient)
	}
}

// TestShardedBuildMallocs counts the heap objects a fleet build makes
// per closed client: its think event comes from a slab the engine
// carves many events from, so the count is a small fraction, not one
// object per client. Differencing two fleet sizes cancels the fixed
// costs.
func TestShardedBuildMallocs(t *testing.T) {
	const pools = 4
	build := func(n int) uint64 {
		cfg := shardedConfig(pools, 2, 0)
		cfg.Load = workload.MixedWorkload(n, 0.1)
		_, mallocs := buildCost(func() any {
			r, err := NewSharded(cfg)
			if err != nil {
				t.Fatal(err)
			}
			r.Close()
			return r
		})
		return mallocs
	}
	const n = 4096
	perClient := (float64(build(2*n)) - float64(build(n))) / (pools * n)
	t.Logf("%.3f mallocs per closed client", perClient)
	if perClient > 0.05 {
		t.Fatalf("a fleet build makes %.3f mallocs per closed client, want ≤ 0.05", perClient)
	}
}

// BenchmarkShardedBuild reports what building a fleet of 64 pools of
// 400 closed clients costs: static, constructed and closed, never run;
// windowed, on per-shard engines behind a barrier hook, also advanced
// one window, where the calendars are first read and laid out.
func BenchmarkShardedBuild(b *testing.B) {
	for _, windowed := range []bool{false, true} {
		cfg := shardedConfig(64, 2, 0)
		cfg.Load = workload.MixedWorkload(400, 0.1)
		name := "static"
		if windowed {
			cfg.BarrierHook = func(float64) {}
			name = "windowed"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := NewSharded(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if windowed {
					r.Advance(ShardLatency)
				}
				r.Close()
			}
		})
	}
}

// TestPoolSeedsOnlyStreamsItDraws counts the random streams a static
// fleet builds a register for. A pool of one application server under
// two closed single-type classes samples from the think and serve
// streams and from the two reservoir streams once the buffers
// overflow: four. Its split root and sampling parent only derive
// children, which their seeds answer; the fleet root is only split, and
// the route, choose and open-arrival streams never draw.
func TestPoolSeedsOnlyStreamsItDraws(t *testing.T) {
	reg := obs.NewRegistry()
	obs.Bind(reg)
	defer obs.Bind(nil)
	const pools = 4
	cfg := Config{
		Server: workload.AppServF(), PoolArchs: workload.CaseStudyServers(),
		DB: workload.CaseStudyDB(), Demands: workload.CaseStudyDemands(),
		Load: workload.MixedWorkload(100, 0.1),
		Seed: 3, WarmUp: 2, Duration: 20, MaxRTSamples: 16,
		Pools: pools, Shards: 2,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for name, cr := range res.PerClass {
		if cr.Completed <= pools*cfg.MaxRTSamples {
			t.Fatalf("class %s completed %d requests: too few to overflow every pool's reservoir", name, cr.Completed)
		}
	}
	if got := reg.Snapshot().Counters["sim_streams_seeded"]; got != 4*pools {
		t.Fatalf("sim_streams_seeded = %d, want %d (four per pool)", got, 4*pools)
	}
}

// TestPerPoolBuildCost bounds what one more pool adds to a barrier-free
// fleet build at fixed clients per pool: its simulator and stations,
// and, since every such pool runs on an engine of its own, an Engine,
// a calendar and a Shard. The calendar lays its buckets out when first
// read, so a build allocates no bucket slice. The pool's think timers
// come from one slab sized by Engine.Reserve, so no partly used slab is
// left per pool. Differencing two pool counts cancels the fixed costs.
// A pool of 400 closed clients measures 24 660 bytes and 43 mallocs
// (29 044 and 49 while each push could grow the calendar, 8 → 256
// buckets; 40 333 and 53 while each of its six drawing streams built
// math/rand's 5 376-byte generator; 43 537 and 46 on a shared per-shard
// engine; 49 981 and 56 with an engine per pool but 128-event slabs);
// the bounds leave about 10 % headroom, so a per-pool cost that grows
// the 625-pool fleets' peak RSS fails here first.
func TestPerPoolBuildCost(t *testing.T) {
	build := func(pools int) (bytes, mallocs uint64) {
		cfg := shardedConfig(pools, 2, 0)
		cfg.Load = workload.MixedWorkload(400, 0.1)
		return buildCost(func() any {
			r, err := NewSharded(cfg)
			if err != nil {
				t.Fatal(err)
			}
			r.Close()
			return r
		})
	}
	const p = 64
	b1, m1 := build(p)
	b2, m2 := build(2 * p)
	perBytes, perMallocs := (float64(b2)-float64(b1))/p, (float64(m2)-float64(m1))/p
	t.Logf("%.0f bytes and %.1f mallocs per pool of 400 clients", perBytes, perMallocs)
	if perBytes > 27000 || perMallocs > 47 {
		t.Fatalf("a pool of 400 clients costs %.0f bytes and %.1f mallocs to build, want ≤ 27000 and ≤ 47", perBytes, perMallocs)
	}
}
