package fleet

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"
)

// The reference implementation: each scorer's pick as a scan over every
// pool, in the expressions the tree's keys and live scores must
// reproduce bit for bit. Ties go to the lowest pool index. Each reads
// the deciding origin's in-window row through originState.assigned,
// the accessor the router's own search reads it by.

func scanQueue(v *view, o *originState) int {
	best, bestScore := 0, math.Inf(1)
	for p := 0; p < len(v.InFlight); p++ {
		if s := v.relLoad(p, rowCount(o, p)); s < bestScore {
			best, bestScore = p, s
		}
	}
	return best
}

func scanLeastRT(v *view, o *originState) int {
	best := 0
	bestRT, bestLoad := math.Inf(1), math.Inf(1)
	for p := 0; p < len(v.InFlight); p++ {
		rt := v.RT[p]
		load := v.relLoad(p, rowCount(o, p))
		if rt < bestRT || (rt == bestRT && load < bestLoad) {
			best, bestRT, bestLoad = p, rt, load
		}
	}
	return best
}

func scanAffinity(v *view, o *originState, class int) int {
	arow := class * len(v.InFlight)
	best, bestScore := -1, math.Inf(1)
	for p := 0; p < len(v.InFlight); p++ {
		if v.Allowed[arow+p] == 0 {
			continue
		}
		if s := v.relLoad(p, rowCount(o, p)); s < bestScore {
			best, bestScore = p, s
		}
	}
	if best < 0 {
		return scanQueue(v, o)
	}
	return best
}

func scanWeighted(v *view, o *originState, class int) int {
	maxRT := 0.0
	for p := 0; p < len(v.InFlight); p++ {
		if v.RT[p] > maxRT {
			maxRT = v.RT[p]
		}
	}
	arow := class * len(v.InFlight)
	best, bestScore := 0, math.Inf(1)
	for p := 0; p < len(v.InFlight); p++ {
		s := weightedQueue * v.relLoad(p, rowCount(o, p))
		if maxRT > 0 {
			s += weightedRT * (v.RT[p] / maxRT)
		}
		if v.Allowed[arow+p] == 0 {
			s += weightedAffinity
		}
		if s < bestScore {
			best, bestScore = p, s
		}
	}
	return best
}

// rowCount is how many requests the origin has routed to pool p this
// window, read through originState.assigned.
func rowCount(o *originState, p int) int32 {
	if i := o.assigned(int32(p)); i >= 0 {
		return o.row[i].n
	}
	return 0
}

// scanPick is the reference pick of the router's scorer.
func scanPick(r *Router, origin, class int) int {
	o := &r.origins[origin]
	switch r.policy {
	case policyQueue:
		return scanQueue(&r.view, o)
	case policyLeastRT:
		return scanLeastRT(&r.view, o)
	case policyAffinity:
		return scanAffinity(&r.view, o, class)
	case policyWeighted:
		return scanWeighted(&r.view, o, class)
	}
	return origin
}

var treeScorers = []Scorer{QueueDepth{}, LeastRT{}, ClassAffinity{}, Weighted{}}

// checkPickStream decodes data into a fleet and a stream of router
// operations, replays it on a router per tree scorer, and fails on the
// first decision whose pool differs from the reference scan's.
//
// Layout: npools, nclasses, one capacity byte per pool (1–4, so loads
// tie often), one initial Allowed mode per class (all zero, all one, or
// a bit pattern), then operations — Started, Completed with an RT from
// {0, 50, 100, 150 ms} (so RTs tie and stay zero), Sync, an Allowed
// flip, and Route, twice as often as the rest.
func checkPickStream(t *testing.T, data []byte) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	npools := 1 + next()%24
	nclasses := 1 + next()%3
	caps := make([]int, npools)
	for p := range caps {
		caps[p] = 1 + next()%4
	}
	allowed := make([]uint8, nclasses*npools)
	for c := 0; c < nclasses; c++ {
		mode := next()
		for p := 0; p < npools; p++ {
			switch mode % 3 {
			case 1:
				allowed[c*npools+p] = 1
			case 2:
				allowed[c*npools+p] = uint8(mode>>(2+p%6)) & 1
			}
		}
	}
	ops := data

	for _, sc := range treeScorers {
		r := NewRouter(sc, caps, nclasses)
		for i, a := range allowed {
			r.setAllowed(i/npools, i%npools, a)
		}
		data = ops
		for len(data) > 0 {
			switch op := next(); op % 6 {
			case 0:
				r.Started(next()%npools, next()%nclasses)
			case 1:
				p, c := next()%npools, next()%nclasses
				if _, _, inflight := r.PoolTotals(p); inflight > 0 {
					r.Completed(p, c, 0.05*float64(next()%4))
				}
			case 2:
				r.Sync()
			case 3:
				c, p := next()%nclasses, next()%npools
				r.setAllowed(c, p, 1-r.view.Allowed[c*npools+p])
			default:
				origin, class := next()%npools, next()%nclasses
				want := scanPick(r, origin, class)
				if got := r.Route(origin, class); got != want {
					t.Fatalf("%s: origin %d class %d routed to pool %d, the scan picks %d",
						sc.Name(), origin, class, got, want)
				}
			}
		}
	}
}

// wideRow is a checkPickStream input in which origin 0 routes to a
// new pool with each of its first 16 decisions and then picks again
// within the same window: 16 pools of equal capacity, one class the
// plan allows everywhere, no Sync. Each pick reads a row one entry
// longer than the last.
func wideRow() []byte {
	b := []byte{15, 0}
	for p := 0; p < 16; p++ {
		b = append(b, 3)
	}
	b = append(b, 1)
	for i := 0; i < 17; i++ {
		b = append(b, 4, 0, 0)
	}
	return b
}

// wideRow's window leaves origin 0 a row of 16 destinations, so the
// fuzz seed below holds the tree search to the scan over a row far
// longer than a fleet run builds.
func TestWideRowReachesManyPools(t *testing.T) {
	caps := make([]int, 16)
	for p := range caps {
		caps[p] = 4
	}
	r := NewRouter(QueueDepth{}, caps, 1)
	for i := 0; i < 16; i++ {
		r.Route(0, 0)
	}
	if n := len(r.origins[0].row); n < 12 {
		t.Fatalf("origin 0 routed to %d distinct pools in one window, want at least 12", n)
	}
}

// Every decision of the four tree scorers equals the full scan's, ties
// included. The seed corpus runs in tier 1: a few hand-made fleets plus
// random streams.
func FuzzPickMatchesScan(f *testing.F) {
	f.Add(wideRow())
	f.Add([]byte{8, 1, 0, 1, 2, 3, 0, 1, 2, 3, 1, 4, 0, 0, 4, 0, 0, 4, 0, 0, 4, 0, 0})
	f.Add([]byte{5, 2, 0, 0, 0, 0, 0, 0, 1, 4, 1, 0, 4, 2, 1, 2, 3, 0, 0, 4, 1, 0, 4, 1, 0})
	f.Add([]byte{16, 1, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 254, 0, 3, 0, 1, 2, 5, 1, 0, 5, 2, 0, 1, 3, 2, 2, 4, 0, 3, 5, 0, 1})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 48; i++ {
		b := make([]byte, 16+rng.Intn(400))
		rng.Read(b)
		f.Add(b)
	}
	f.Fuzz(checkPickStream)
}

// primeRouter builds a router over npools pools with two classes,
// primed as the benchmark's routing probe primes it: capacities 50–110,
// uneven in-flight counts and one completion per pool.
func primeRouter(scorer Scorer, npools int) *Router {
	const nclasses = 2
	caps := make([]int, npools)
	for i := range caps {
		caps[i] = 50 + 10*(i%7)
	}
	r := NewRouter(scorer, caps, nclasses)
	for pool := 0; pool < npools; pool++ {
		for k := 0; k < (pool*13)%37; k++ {
			r.Started(pool, k%nclasses)
		}
		r.Completed(pool, 0, 0.05+0.001*float64(pool))
		r.Started(pool, 0)
	}
	r.Sync()
	return r
}

// routeProbe is one fully routed request as the probe times it, with a
// barrier sync every 1024 decisions.
func routeProbe(r *Router, i int) {
	cls := i % r.nclasses
	dst := r.Route(i%r.npools, cls)
	r.Started(dst, cls)
	r.Completed(dst, cls, 0.05)
	if i&1023 == 1023 {
		r.Sync()
	}
}

// A decision examines a few dozen tree nodes, not every pool: the
// count, unlike a time, is the same on any machine.
func TestRouteVisitsFewPools(t *testing.T) {
	const decisions = 20000
	for _, npools := range []int{64, 625} {
		r := primeRouter(ClassAffinity{}, npools)
		for i := 0; i < decisions; i++ {
			routeProbe(r, i)
		}
		_, _, visited := r.totals()
		perDecision := float64(visited) / decisions
		t.Logf("%d pools: %.1f nodes per decision", npools, perDecision)
		if npools == 625 && perDecision > 64 {
			t.Errorf("%d pools: %.1f nodes examined per decision, want at most 64", npools, perDecision)
		}
	}
}

// Origins on different shards write their own originState; padding
// keeps each one a single cache line.
func TestOriginStateIsOneCacheLine(t *testing.T) {
	if size := unsafe.Sizeof(originState{}); size != 64 {
		t.Fatalf("originState is %d bytes, want 64", size)
	}
}

// routerBytes returns the least bytes, over three tries, that building
// an affinity router over npools pools and routing one window on it
// allocate: one decision per origin, then the barrier sync. A stray
// runtime allocation can only add, so the least is the router's own.
func routerBytes(npools int) uint64 {
	caps := make([]int, npools)
	for i := range caps {
		caps[i] = 50 + 10*(i%7)
	}
	least := uint64(math.MaxUint64)
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		r := NewRouter(ClassAffinity{}, caps, 2)
		for origin := 0; origin < npools; origin++ {
			r.Route(origin, origin%2)
		}
		r.Sync()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// A router's bytes grow linearly in the pools: the marginal cost of a
// pool must be the same from 512 to 1 024 pools as from 256 to 512. An
// npools × npools decision matrix, or a per-origin row sized to the
// fleet, would double it.
func TestRouterBytesLinearInPools(t *testing.T) {
	const n = 256
	b1, b2, b4 := float64(routerBytes(n)), float64(routerBytes(2*n)), float64(routerBytes(4*n))
	lo, hi := (b2-b1)/n, (b4-b2)/(2*n)
	t.Logf("%.0f bytes per pool from %d to %d pools, %.0f from %d to %d", lo, n, 2*n, hi, 2*n, 4*n)
	if hi > 1.1*lo {
		t.Fatalf("a pool costs %.0f bytes among %d but %.0f among %d: the router is not linear in pools", lo, 2*n, hi, 4*n)
	}
}

// BenchmarkRoute times one fully routed request per scorer and fleet
// size, primed and synced as the benchmark's routing probe does.
func BenchmarkRoute(b *testing.B) {
	for _, name := range ScorerNames() {
		scorer, err := ScorerByName(name)
		if err != nil {
			b.Fatal(err)
		}
		for _, npools := range []int{64, 625} {
			b.Run(fmt.Sprintf("%s/%d", name, npools), func(b *testing.B) {
				r := primeRouter(scorer, npools)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					routeProbe(r, i)
				}
				_, _, visited := r.totals()
				b.ReportMetric(float64(visited)/float64(b.N), "nodes/op")
			})
		}
	}
}
