package fleet

import "math"

// keyKind is how a tree scores a pool; Router.score computes it.
type keyKind uint8

const (
	keyLoad     keyKind = iota // relative load: queue, and affinity's fallback
	keyAffinity                // relative load, +Inf where the plan disallows the class
	keyLeastRT                 // smoothed RT, then relative load
	keyWeighted                // the Weighted blend
)

// tree is a tournament tree over the pools in the iterative
// segment-tree layout: leaf n+p holds pool p, and internal node k < n
// holds whichever of its children's winners has the least (key, tie,
// index). Keys are fixed at the window barrier; inside a window a pool's
// live score can only rise above its key (the origin's own in-window
// row is the one thing that moves, and it only counts up), which is the
// bound Router.search prunes on.
type tree struct {
	kind  keyKind
	class int       // the class a keyAffinity or keyWeighted tree scores
	win   []int32   // 2n nodes; node 0 unused
	key   []float64 // per pool
	tie   []float64 // per pool: leastrt's relative load, zero otherwise
}

func newTree(kind keyKind, class, n int) tree {
	t := tree{
		kind:  kind,
		class: class,
		win:   make([]int32, 2*n),
		key:   make([]float64, n),
		tie:   make([]float64, n),
	}
	for p := 0; p < n; p++ {
		t.win[n+p] = int32(p)
	}
	return t
}

// before orders two scored pools: by key, then tie, then lowest index —
// the order every scorer's pick minimises.
func before(ka, ta float64, a int32, kb, tb float64, b int32) bool {
	if ka != kb {
		return ka < kb
	}
	if ta != tb {
		return ta < tb
	}
	return a < b
}

// play decides internal node k from its two children.
func (t *tree) play(k int) {
	a, b := t.win[2*k], t.win[2*k+1]
	if before(t.key[b], t.tie[b], b, t.key[a], t.tie[a], a) {
		a = b
	}
	t.win[k] = a
}

// score is pool p's score in t when the pool's relative load is load:
// its key when load is the barrier snapshot's, its live score when load
// counts the origin's in-window assignments too. Each branch is the
// expression the scorer's full scan evaluates, and none decreases as
// load rises.
func (r *Router) score(t *tree, p int, load float64) (float64, float64) {
	switch t.kind {
	case keyAffinity:
		if r.view.Allowed[t.class*r.npools+p] == 0 {
			return math.Inf(1), 0
		}
	case keyLeastRT:
		return r.view.RT[p], load
	case keyWeighted:
		s := weightedQueue * load
		if r.maxRT > 0 {
			s += weightedRT * (r.view.RT[p] / r.maxRT)
		}
		if r.view.Allowed[t.class*r.npools+p] == 0 {
			s += weightedAffinity
		}
		return s, 0
	}
	return load, 0
}

// build scores every leaf from the barrier loads and plays the
// tournament bottom-up: O(npools), no sort.
func (r *Router) build(t *tree) {
	for p := 0; p < r.npools; p++ {
		t.key[p], t.tie[p] = r.score(t, p, r.load[p])
	}
	for k := r.npools - 1; k >= 1; k-- {
		t.play(k)
	}
}

// rescore re-keys pool p in t and replays its leaf-to-root path:
// O(log npools).
func (r *Router) rescore(t *tree, p int) {
	t.key[p], t.tie[p] = r.score(t, p, r.load[p])
	for k := (r.npools + p) / 2; k >= 1; k /= 2 {
		t.play(k)
	}
}

// search returns the pool with the least (live score, tie, index)
// among t's leaves for a decision by origin — the pool a full scan
// would pick — and the number of nodes it examined. A subtree whose
// winner cannot beat the best pool so far is skipped whole; one whose
// winner origin has not routed to this window is won by that pool
// (its live score is its key, and no other leaf's can be lower); only
// below a winner origin has routed to does the search descend, into
// the winner's side first.
func (r *Router) search(t *tree, origin int) (int, int) {
	o := &r.origins[origin]
	n := int32(r.npools)
	best := int32(-1)
	var bestKey, bestTie float64
	var stack [64]int32 // one pending sibling per level at most
	stack[0] = 1
	sp, visited := 1, 0
	lastW, lastI := int32(-1), -1 // the last winner looked up in the origin's row, and its index there
	for sp > 0 {
		sp--
		k := stack[sp]
		visited++
		w := t.win[k]
		key, tie := t.key[w], t.tie[w]
		if best >= 0 && !before(key, tie, w, bestKey, bestTie, best) {
			continue
		}
		if w != lastW { // a descent meets its winner again at every level
			lastW, lastI = w, o.assigned(w)
		}
		if lastI >= 0 {
			if k < n {
				l := 2 * k
				if t.win[l] == w {
					stack[sp], stack[sp+1] = l+1, l
				} else {
					stack[sp], stack[sp+1] = l, l+1
				}
				sp += 2
				continue
			}
			key, tie = r.score(t, int(w), r.view.relLoad(int(w), o.row[lastI].n))
			if best >= 0 && !before(key, tie, w, bestKey, bestTie, best) {
				continue
			}
		}
		best, bestKey, bestTie = w, key, tie
	}
	return int(best), visited
}
