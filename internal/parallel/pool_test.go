package parallel

import (
	"math"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

// Every Run must execute every slot exactly once, across many
// repeated barriers, for serial and concurrent pool sizes.
func TestPoolRunsEverySlot(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8} {
		counts := make([]atomic.Int64, n)
		p := NewPool(n, n, func(slot int) { counts[slot].Add(1) })
		const rounds = 200
		for r := 0; r < rounds; r++ {
			p.Run()
		}
		p.Close()
		for i := range counts {
			if got := counts[i].Load(); got != rounds {
				t.Fatalf("n=%d slot %d ran %d times, want %d", n, i, got, rounds)
			}
		}
	}
}

// A single-slot pool must run inline on the calling goroutine — the
// serial path used by single-shard simulations must involve no
// scheduling at all.
func TestPoolSingleSlotInline(t *testing.T) {
	var ran bool
	p := NewPool(1, 1, func(slot int) { ran = true })
	p.Run() // would race with a worker goroutine under -race if not inline
	if !ran {
		t.Fatal("slot did not run")
	}
	p.Close()
}

// Run must not return before all slots complete (it is a barrier).
func TestPoolRunIsBarrier(t *testing.T) {
	var inFlight, maxSeen atomic.Int64
	p := NewPool(4, 4, func(slot int) {
		cur := inFlight.Add(1)
		for {
			m := maxSeen.Load()
			if cur <= m || maxSeen.CompareAndSwap(m, cur) {
				break
			}
		}
		inFlight.Add(-1)
	})
	for r := 0; r < 100; r++ {
		p.Run()
		if got := inFlight.Load(); got != 0 {
			t.Fatalf("Run returned with %d slots in flight", got)
		}
	}
	p.Close()
	if maxSeen.Load() < 1 {
		t.Fatal("no slot ever ran")
	}
}

// Close is idempotent and leaves a never-started (serial) pool usable.
func TestPoolCloseIdempotent(t *testing.T) {
	p := NewPool(3, 3, func(int) {})
	p.Run()
	p.Close()
	p.Close()
	s := NewPool(1, 1, func(int) {})
	s.Close()
	s.Close()
}

// within fails the test, with every goroutine's stack, when body has
// not returned after d: a lost wake-up must fail, not hang. body runs
// on its own goroutine, so it reports with t.Errorf and returns.
func within(t *testing.T, d time.Duration, body func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		body()
	}()
	select {
	case <-done:
	case <-time.After(d):
		buf := make([]byte, 1<<16)
		t.Fatalf("still running after %v — lost wake-up?\n%s", d, buf[:runtime.Stack(buf, true)])
	}
}

// goroutines returns runtime.NumGoroutine once it has held still for a
// few milliseconds: a goroutine is counted until a moment after its
// last statement, so the workers of an earlier test's pool, or the ones
// a Close has just collected, may still be on their way out.
func goroutines() int {
	n := runtime.NumGoroutine()
	for still := 0; still < 5; still++ {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, still = m, 0
		}
	}
	return n
}

// rounds drives p through the given number of Runs and checks after
// each that every slot ran exactly once. counts is what p's function
// increments, deliberately without atomics: a slot's state is private
// to the slot and published by the pool alone, so under -race this is
// also the test of the pool's happens-before edges.
func rounds(t *testing.T, p *Pool, counts []int, rounds int, between func(r int)) {
	for r := 1; r <= rounds; r++ {
		p.Run()
		for s, c := range counts {
			if c != r {
				t.Errorf("after Run %d slot %d has run %d times", r, s, c)
				return
			}
		}
		if between != nil {
			between(r)
		}
	}
}

// checkStats asserts the counters' deterministic relations; how many
// waits parked is the host's business and only bounded here.
func checkStats(t *testing.T, p *Pool, n int, runs uint64) {
	st := p.Stats()
	if st.Runs != runs {
		t.Errorf("n=%d: Stats().Runs = %d, want %d", n, st.Runs, runs)
	}
	if st.CallerSlots < st.Runs || st.CallerSlots > uint64(n)*st.Runs {
		t.Errorf("n=%d: caller ran %d slots in %d Runs, want between one and all per Run", n, st.CallerSlots, st.Runs)
	}
	// Per Run the caller parks at most once and each worker at most once
	// more; the +1 is the workers' park before the first Run.
	if limit := uint64(n) * (st.Runs + 1); st.Parks > limit {
		t.Errorf("n=%d: %d parks in %d Runs, limit %d", n, st.Parks, st.Runs, limit)
	}
}

// With both budgets zeroed every wait goes straight to the two-phase
// park, so each of the 10 000 Runs is a race between announcing a park
// and being woken; n − 1 workers are forced whatever GOMAXPROCS is, so
// at -cpu 1 every slot beyond the caller's is a wake-up that must not
// be lost.
func TestPoolForcedPark(t *testing.T) {
	for _, n := range []int{2, 3, 8} {
		within(t, time.Minute, func() {
			counts := make([]int, n)
			p := newPool(n, n-1, 0, 0, func(s int) { counts[s]++ })
			defer p.Close()
			awaitParks(t, p, uint64(n-1)) // nothing to claim yet and no budget: every worker's first wait parks
			rounds(t, p, counts, 10000, nil)
			checkStats(t, p, n, 10000)
		})
	}
}

// With a budget that never runs out nothing may park, and at
// GOMAXPROCS 1 the only thing that lets the n − 1 forced workers and
// the caller make progress is that every wait yields.
func TestPoolNeverParksWithinBudget(t *testing.T) {
	for _, n := range []int{2, 3, 8} {
		within(t, time.Minute, func() {
			counts := make([]int, n)
			p := newPool(n, n-1, spinLoads, math.MaxInt64, func(s int) { counts[s]++ })
			defer p.Close()
			rounds(t, p, counts, 2000, nil)
			checkStats(t, p, n, 2000)
			if parks := p.Stats().Parks; parks != 0 {
				t.Errorf("n=%d: %d parks with an unbounded yield budget", n, parks)
			}
		})
	}
}

// A slot that outlasts the budget, rotating over the slots, and a
// caller that dawdles between Runs: the caller parks while a worker
// runs, and workers park while the caller is in its serial section —
// spin, yield and park all taken, in both roles, in one run.
func TestPoolSlowSlotAndSerialSection(t *testing.T) {
	const budget, slow = 50 * time.Microsecond, 300 * time.Microsecond
	for _, n := range []int{2, 3, 8} {
		within(t, time.Minute, func() {
			counts := make([]int, n)
			var round int // written between Runs only
			p := newPool(n, n-1, 16, budget, func(s int) {
				counts[s]++
				if s == round%n {
					time.Sleep(slow)
				}
			})
			defer p.Close()
			rounds(t, p, counts, 300, func(r int) {
				round = r
				if r%2 == 0 {
					time.Sleep(slow)
				}
			})
			checkStats(t, p, n, 300)
			if p.Stats().Parks == 0 {
				t.Errorf("n=%d: waits of %v against a %v budget never parked", n, slow, budget)
			}
		})
	}
}

// More slots than processors: NewPool starts fewer workers than slots
// (none on one processor) and the spare slots go to whoever is free.
func TestPoolMoreSlotsThanProcs(t *testing.T) {
	n := 4 * runtime.GOMAXPROCS(0)
	within(t, time.Minute, func() {
		counts := make([]int, n)
		p := NewPool(n, n, func(s int) { counts[s]++ })
		defer p.Close()
		if got, want := len(p.workers), runtime.GOMAXPROCS(0)-1; got != want {
			t.Errorf("%d slots on %d processors: %d workers, want %d", n, want+1, got, want)
		}
		rounds(t, p, counts, 2000, nil)
		checkStats(t, p, n, 2000)
	})
}

// The goroutine cap bounds the workers below the slot count and the
// processors: many slots on few goroutines are claimed one after
// another, and a cap of one runs them inline on the caller in index
// order.
func TestPoolGoroutineCap(t *testing.T) {
	const n = 16
	for _, g := range []int{1, 2} {
		within(t, time.Minute, func() {
			counts := make([]int, n)
			var order []int
			p := NewPool(n, g, func(s int) {
				counts[s]++
				if g == 1 {
					order = append(order, s) // would race if not inline
				}
			})
			defer p.Close()
			if got, want := len(p.workers), min(g, runtime.GOMAXPROCS(0))-1; got != want {
				t.Errorf("%d slots capped at %d goroutines: %d workers, want %d", n, g, got, want)
			}
			rounds(t, p, counts, 200, nil)
			checkStats(t, p, n, 200)
			if g == 1 && (len(order) != 200*n || !slices.IsSorted(order[:n])) {
				t.Errorf("one goroutine ran slots %v..., want index order", order[:n])
			}
		})
	}
}

// On one processor a fan-out has nobody to fan out to: NewPool starts
// no goroutine and Run is a loop over the slots in index order.
// GOMAXPROCS is read by NewPool alone, so raising it afterwards changes
// nothing.
func TestPoolOneProcRunsInline(t *testing.T) {
	procs := runtime.GOMAXPROCS(1)
	before := goroutines()
	var order []int
	p := NewPool(4, 4, func(s int) { order = append(order, s) }) // would race if not inline
	runtime.GOMAXPROCS(max(procs, 2))
	defer runtime.GOMAXPROCS(procs)
	p.Run()
	p.Run()
	if after := runtime.NumGoroutine(); after != before {
		t.Errorf("goroutines %d → %d, want none started", before, after)
	}
	if want := []int{0, 1, 2, 3, 0, 1, 2, 3}; !slices.Equal(order, want) {
		t.Errorf("slot order %v, want %v", order, want)
	}
	if st := p.Stats(); st != (PoolStats{Runs: 2, CallerSlots: 8}) {
		t.Errorf("stats %+v, want 2 Runs, 8 caller slots, no parks", st)
	}
	p.Close()
}

// awaitParks blocks until p has recorded at least want parks.
func awaitParks(t *testing.T, p *Pool, want uint64) {
	for deadline := time.Now().Add(10 * time.Second); p.parks.Load() < want; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Errorf("%d parks after 10 s, want %d", p.parks.Load(), want)
			return
		}
	}
}

// Close must collect the workers wherever they are waiting — spinning,
// yielding or parked — and leave no goroutine behind; a second Close is
// a no-op.
func TestPoolCloseCollectsWorkers(t *testing.T) {
	const n = 4
	for _, phase := range []struct {
		name  string
		spin  int
		yield time.Duration
		parks uint64 // to wait for before Close
	}{
		{"spinning", math.MaxInt, 0, 0},
		{"yielding", 0, math.MaxInt64, 0},
		{"parked", 0, 0, n - 1},
	} {
		within(t, time.Minute, func() {
			before := goroutines()
			p := newPool(n, n-1, phase.spin, phase.yield, func(int) {})
			p.Run()
			awaitParks(t, p, phase.parks)
			p.Close()
			p.Close()
			if after := goroutines(); after != before {
				t.Errorf("%s: %d goroutines before NewPool, %d after Close", phase.name, before, after)
			}
		})
	}
}

// After an idle pause longer than the budget every worker is asleep;
// the next Run must wake them and complete.
func TestPoolRunAfterIdlePause(t *testing.T) {
	const n = 3
	within(t, time.Minute, func() {
		counts := make([]int, n)
		p := newPool(n, n-1, spinLoads, yieldBudget, func(s int) { counts[s]++ })
		defer p.Close()
		for r := 1; r <= 3; r++ {
			awaitParks(t, p, uint64(r*(n-1))) // every worker has parked again since the last Run
			p.Run()
			for s, c := range counts {
				if c != r {
					t.Errorf("Run %d after a pause: slot %d has run %d times", r, s, c)
				}
			}
		}
	})
}

// BenchmarkPoolRun is the floor under the coordinator's window: one
// Run of two empty slots, i.e. the publication, the claim and the wait
// with nothing to wait for. 0 allocs/op.
func BenchmarkPoolRun(b *testing.B) {
	p := NewPool(2, 2, func(int) {})
	defer p.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Run()
	}
	b.StopTimer() // the deferred Close waits for the worker to exit
}
