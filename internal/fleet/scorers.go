package fleet

import "fmt"

// Scorer names the routing rule a Router applies to every request.
// The Router implements each rule itself, over tournament trees of
// keys fixed at the window barrier (see tree.go), so the set is closed:
// the five types below are the scorers. Every rule is a pure function
// of the barrier-synced view plus the origin's own in-window row — no
// hidden state, no randomness — which is what keeps seeded fleet runs
// bit-identical at any shard count. Ties go to the lowest pool index.
type Scorer interface {
	// Name is the scorer's stable identifier ("queue", "affinity", ...).
	Name() string
	policy() policy
}

// policy is the routing rule a Scorer selects.
type policy uint8

const (
	policyStatic policy = iota
	policyQueue
	policyLeastRT
	policyAffinity
	policyWeighted
)

// Static always serves locally — the pre-fleet behaviour (every pool
// its own island) and the routing A/B baseline.
type Static struct{}

// Name implements Scorer.
func (Static) Name() string   { return "static" }
func (Static) policy() policy { return policyStatic }

// QueueDepth joins the relatively shortest queue: the pool minimising
// (in-flight + own in-window assignments) / capacity. Plan-oblivious.
type QueueDepth struct{}

// Name implements Scorer.
func (QueueDepth) Name() string   { return "queue" }
func (QueueDepth) policy() policy { return policyQueue }

// LeastRT chases the pool with the lowest smoothed service-side
// response time, breaking ties (including the all-zero state before
// first completions) by relative queue depth. Plan-oblivious.
type LeastRT struct{}

// Name implements Scorer.
func (LeastRT) Name() string   { return "leastrt" }
func (LeastRT) policy() policy { return policyLeastRT }

// ClassAffinity is Algorithm 1 in the loop: it joins the relatively
// shortest queue among the pools the resource manager's current plan
// allows for the class (view.Allowed). When the plan allows the class
// nowhere — rejected workload, or no plan yet with a zeroed row — it
// falls back to plan-oblivious QueueDepth so clients are never
// stranded.
type ClassAffinity struct{}

// Name implements Scorer.
func (ClassAffinity) Name() string   { return "affinity" }
func (ClassAffinity) policy() policy { return policyAffinity }

// Weighted blends the three signals 1 : 1 : 2 — relative queue depth,
// smoothed RT normalised by the fleet max (so the blend is scale-free),
// and a flat penalty for pools outside the class's planned affinity set.
type Weighted struct{}

// The Weighted blend. The queue weight must stay positive: the router's
// pruning bound relies on a pool's score never falling below its
// barrier key as in-window assignments raise its load.
const (
	weightedQueue    = 1
	weightedRT       = 1
	weightedAffinity = 2
)

// Name implements Scorer.
func (Weighted) Name() string   { return "weighted" }
func (Weighted) policy() policy { return policyWeighted }

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
		return Weighted{}, nil
	}
	return nil, fmt.Errorf("fleet: unknown scorer %q (have %v)", name, ScorerNames())
}
