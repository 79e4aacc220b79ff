package fleet

import (
	"fmt"
	"math"
)

// Scorer picks the serving pool for one request. Pick runs on the
// origin pool's shard goroutine, on the zero-alloc routing path: it
// must not allocate, and it may read only the barrier-synced View
// fields plus the origin's own Assigned row (View documents why).
// Given the same View and arguments a Scorer must return the same
// pool — no hidden state, no randomness — which is what keeps seeded
// fleet runs bit-identical at any shard count.
type Scorer interface {
	// Name is the scorer's stable identifier ("queue", "affinity", ...).
	Name() string
	// Pick returns the serving pool for a request of the class issued
	// by origin. Out-of-range returns are clamped to origin.
	Pick(v *View, origin, class int) int
}

// Static always serves locally — the pre-fleet behaviour (every pool
// its own island) and the routing A/B baseline.
type Static struct{}

// Name implements Scorer.
func (Static) Name() string { return "static" }

// Pick implements Scorer.
func (Static) Pick(v *View, origin, class int) int { return origin }

// QueueDepth joins the relatively shortest queue: the pool minimising
// (in-flight + own in-window assignments) / capacity. Plan-oblivious;
// ties go to the lowest pool index.
type QueueDepth struct{}

// Name implements Scorer.
func (QueueDepth) Name() string { return "queue" }

// Pick implements Scorer.
func (QueueDepth) Pick(v *View, origin, class int) int {
	best, bestScore := 0, math.Inf(1)
	for p := 0; p < v.NPools; p++ {
		if s := v.relLoad(origin, p); s < bestScore {
			best, bestScore = p, s
		}
	}
	return best
}

// LeastRT chases the pool with the lowest smoothed service-side
// response time, breaking ties (including the all-zero state before
// first completions) by relative queue depth. Plan-oblivious.
type LeastRT struct{}

// Name implements Scorer.
func (LeastRT) Name() string { return "leastrt" }

// Pick implements Scorer.
func (LeastRT) Pick(v *View, origin, class int) int {
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

// ClassAffinity is Algorithm 1 in the loop: it joins the relatively
// shortest queue among the pools the resource manager's current plan
// allows for the class (View.Allowed). When the plan allows the class
// nowhere — rejected workload, or no plan yet with a zeroed row — it
// falls back to plan-oblivious QueueDepth so clients are never
// stranded.
type ClassAffinity struct{}

// Name implements Scorer.
func (ClassAffinity) Name() string { return "affinity" }

// Pick implements Scorer.
func (ClassAffinity) Pick(v *View, origin, class int) int {
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
		return QueueDepth{}.Pick(v, origin, class)
	}
	return best
}

// Weighted blends the three signals: relative queue depth, smoothed RT
// (normalised by the fleet max so the blend is scale-free), and a flat
// penalty for pools outside the class's planned affinity set. Zero
// weights drop a signal; {1, 0, 0} is QueueDepth, {0, 0, big} tends to
// ClassAffinity.
type Weighted struct {
	// Queue weights the relative queue-depth term.
	Queue float64
	// RT weights the normalised smoothed-response-time term.
	RT float64
	// Affinity is the additive penalty for a pool the plan does not
	// allow for the class.
	Affinity float64
}

// Name implements Scorer.
func (Weighted) Name() string { return "weighted" }

// Pick implements Scorer.
func (w Weighted) Pick(v *View, origin, class int) int {
	maxRT := 0.0
	for p := 0; p < v.NPools; p++ {
		if v.RT[p] > maxRT {
			maxRT = v.RT[p]
		}
	}
	arow := class * v.NPools
	best, bestScore := 0, math.Inf(1)
	for p := 0; p < v.NPools; p++ {
		s := w.Queue * v.relLoad(origin, p)
		if maxRT > 0 {
			s += w.RT * (v.RT[p] / maxRT)
		}
		if v.Allowed[arow+p] == 0 {
			s += w.Affinity
		}
		if s < bestScore {
			best, bestScore = p, s
		}
	}
	return best
}

// DefaultWeighted is the stock blend ScorerByName("weighted") returns.
func DefaultWeighted() Weighted { return Weighted{Queue: 1, RT: 1, Affinity: 2} }

// ScorerNames lists the names ScorerByName accepts.
func ScorerNames() []string {
	return []string{"static", "queue", "leastrt", "affinity", "weighted"}
}

// ScorerByName resolves a scorer by its stable name — the -scorer flag
// of cmd/rmsim and the rows of the fleet-ab study.
func ScorerByName(name string) (Scorer, error) {
	switch name {
	case "static":
		return Static{}, nil
	case "queue":
		return QueueDepth{}, nil
	case "leastrt":
		return LeastRT{}, nil
	case "affinity":
		return ClassAffinity{}, nil
	case "weighted":
		return DefaultWeighted(), nil
	}
	return nil, fmt.Errorf("fleet: unknown scorer %q (have %v)", name, ScorerNames())
}
