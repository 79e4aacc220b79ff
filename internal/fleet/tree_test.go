package fleet

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// The reference implementation: each scorer's pick as a scan over every
// pool, in the expressions the tree's keys and live scores must
// reproduce bit for bit. Ties go to the lowest pool index.

func scanQueue(v *view, origin int) int {
	best, bestScore := 0, math.Inf(1)
	for p := 0; p < v.NPools; p++ {
		if s := v.relLoad(origin, p); s < bestScore {
			best, bestScore = p, s
		}
	}
	return best
}

func scanLeastRT(v *view, origin int) int {
	best := 0
	bestRT, bestLoad := math.Inf(1), math.Inf(1)
	for p := 0; p < v.NPools; p++ {
		rt := v.RT[p]
		load := v.relLoad(origin, p)
		if rt < bestRT || (rt == bestRT && load < bestLoad) {
			best, bestRT, bestLoad = p, rt, load
		}
	}
	return best
}

func scanAffinity(v *view, origin, class int) int {
	arow := class * v.NPools
	best, bestScore := -1, math.Inf(1)
	for p := 0; p < v.NPools; p++ {
		if v.Allowed[arow+p] == 0 {
			continue
		}
		if s := v.relLoad(origin, p); s < bestScore {
			best, bestScore = p, s
		}
	}
	if best < 0 {
		return scanQueue(v, origin)
	}
	return best
}

func scanWeighted(v *view, origin, class int) int {
	maxRT := 0.0
	for p := 0; p < v.NPools; p++ {
		if v.RT[p] > maxRT {
			maxRT = v.RT[p]
		}
	}
	arow := class * v.NPools
	best, bestScore := 0, math.Inf(1)
	for p := 0; p < v.NPools; p++ {
		s := weightedQueue * v.relLoad(origin, p)
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

// scanPick is the reference pick of the router's scorer.
func scanPick(r *Router, origin, class int) int {
	switch r.policy {
	case policyQueue:
		return scanQueue(&r.view, origin)
	case policyLeastRT:
		return scanLeastRT(&r.view, origin)
	case policyAffinity:
		return scanAffinity(&r.view, origin, class)
	case policyWeighted:
		return scanWeighted(&r.view, origin, class)
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

// Every decision of the four tree scorers equals the full scan's, ties
// included. The seed corpus runs in tier 1: a few hand-made fleets plus
// random streams.
func FuzzPickMatchesScan(f *testing.F) {
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
		perDecision := float64(r.visitedTotal()) / decisions
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
				b.ReportMetric(float64(r.visitedTotal())/float64(b.N), "nodes/op")
			})
		}
	}
}
