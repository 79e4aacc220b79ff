package fleet

import (
	"math"
	"time"

	"perfpred/internal/rm"
)

// pendingChange is one scheduled affinity-matrix edit: a server
// granted to a class warms up before it starts taking that class's
// traffic; a server revoked keeps accepting until its drain deadline.
type pendingChange struct {
	class, pool int
	allow       uint8
	at          float64
}

// classWindow is a class's cumulative completion state at the last
// replan — the baseline the next replan differences against.
type classWindow struct {
	completed uint64
	rtSum     float64
	rtCount   uint64
}

// replanState runs the resource manager in-loop: at every window
// barrier it applies matured affinity changes, and at each replan tick
// it snapshots the fleet, estimates the live per-class client totals
// by Little's law, cuts a plan with rm.Replanner (Algorithm 1 over
// warm-started solves) and schedules the affinity diff with
// warm-up/drain delays. Everything here runs on the coordinator
// goroutine between windows — off the routing hot path — and every
// input is a deterministic function of the simulated trajectory, so
// replan sequences are identical at any shard count.
type replanState struct {
	rp             *rm.Replanner
	router         *Router
	period         float64
	warmup, drain  float64
	next           float64
	names          []string  // class names, Load order
	goals          []float64 // class SLA goals
	thinks         []float64 // class think-time means
	configured     []int     // fleet-wide configured clients per class
	classIdx       map[string]int
	snap           rm.FleetSnapshot // Pools fixed at construction
	desired        []uint8          // scratch: the plan's allowed matrix
	pending        []pendingChange
	last           []classWindow
	lastTime       float64
	estimates      []int
	latencies      []time.Duration
	replans        int
	pendingApplied int
	err            error // first replan failure; surfaced by Run
}

func newReplanState(rp *rm.Replanner, router *Router, cfg *Config) *replanState {
	n := len(cfg.Load)
	rs := &replanState{
		rp:         rp,
		router:     router,
		period:     cfg.ReplanPeriod,
		warmup:     cfg.WarmupDelay,
		drain:      cfg.DrainDelay,
		next:       cfg.ReplanPeriod,
		names:      make([]string, n),
		goals:      make([]float64, n),
		thinks:     make([]float64, n),
		configured: make([]int, n),
		classIdx:   make(map[string]int, n),
		desired:    make([]uint8, n*router.npools),
		last:       make([]classWindow, n),
		estimates:  make([]int, n),
	}
	for i, pop := range cfg.Load {
		rs.names[i] = pop.Class.Name
		rs.goals[i] = pop.Class.GoalRT
		rs.thinks[i] = pop.Class.ThinkTimeMean
		rs.configured[i] = pop.Clients * cfg.Pools // every pool carries Load
		rs.classIdx[pop.Class.Name] = i
	}
	rs.snap.Classes = make([]rm.Class, n)
	rs.snap.Pools = make([]rm.PoolState, router.npools)
	for p := range rs.snap.Pools {
		a := cfg.Archs[p%len(cfg.Archs)]
		rs.snap.Pools[p] = rm.PoolState{Pool: p, Arch: a.Name, Power: a.MaxThroughputTypical}
	}
	return rs
}

// step runs at every window barrier, after Router.Sync: matured
// affinity changes apply, then a due replan fires (one per barrier —
// the barrier cadence lower-bounds the effective period).
func (rs *replanState) step(now float64) {
	rs.sweep(now)
	if rs.err != nil || now < rs.next-timeEps {
		return
	}
	for now >= rs.next-timeEps {
		rs.next += rs.period
	}
	rs.replanNow(now)
	rs.sweep(now) // zero-delay changes take effect at this same barrier
}

// timeEps absorbs float drift between barrier times (multiples of the
// lookahead) and replan deadlines (multiples of the period).
const timeEps = 1e-9

func (rs *replanState) replanNow(now float64) {
	v := &rs.router.view
	span := now - rs.lastTime
	for c := range rs.names {
		completed, rtSum, rtCount := rs.router.classTotals(c)
		// Little's law over the window since the last replan:
		// N ≈ X·(Z + R). Before any completions (first replan, or a
		// drained class) fall back to the configured totals.
		est := rs.configured[c]
		if span > 0 {
			dc := completed - rs.last[c].completed
			drc := rtCount - rs.last[c].rtCount
			if dc > 0 && drc > 0 {
				thr := float64(dc) / span
				rt := (rtSum - rs.last[c].rtSum) / float64(drc)
				if e := int(math.Round(thr * (rs.thinks[c] + rt))); e >= 1 {
					est = e
				}
			}
		}
		rs.last[c] = classWindow{completed: completed, rtSum: rtSum, rtCount: rtCount}
		rs.estimates[c] = est
		rs.snap.Classes[c] = rm.Class{Name: rs.names[c], GoalRT: rs.goals[c], Clients: est}
	}
	rs.lastTime = now

	t0 := time.Now()
	plan, err := rs.rp.Replan(&rs.snap)
	rs.latencies = append(rs.latencies, time.Since(t0))
	if err != nil {
		rs.err = err
		return
	}
	rs.replans++

	// The plan's affinity matrix, then the diff against the live one,
	// rebuilt wholesale so a superseded pending change cannot fire.
	for i := range rs.desired {
		rs.desired[i] = 0
	}
	npools := rs.router.npools
	for _, a := range plan.Allocations {
		if ci, ok := rs.classIdx[a.Class]; ok {
			if pi, ok := poolFromServerName(a.Server, npools); ok {
				rs.desired[ci*npools+pi] = 1
			}
		}
	}
	rs.pending = rs.pending[:0]
	for c := range rs.names {
		row := c * npools
		for p := 0; p < npools; p++ {
			want := rs.desired[row+p]
			if want == v.Allowed[row+p] {
				continue
			}
			at := now + rs.warmup
			if want == 0 {
				at = now + rs.drain
			}
			rs.pending = append(rs.pending, pendingChange{class: c, pool: p, allow: want, at: at})
		}
	}
}

// sweep applies every pending change whose deadline has passed.
func (rs *replanState) sweep(now float64) {
	if len(rs.pending) == 0 {
		return
	}
	kept := rs.pending[:0]
	for _, pc := range rs.pending {
		if pc.at <= now+timeEps {
			rs.router.setAllowed(pc.class, pc.pool, pc.allow)
			rs.pendingApplied++
		} else {
			kept = append(kept, pc)
		}
	}
	rs.pending = kept
}

// poolFromServerName inverts rm.PoolServerName ("p<i>") without
// allocating.
func poolFromServerName(name string, npools int) (int, bool) {
	if len(name) < 2 || name[0] != 'p' {
		return 0, false
	}
	n := 0
	for i := 1; i < len(name); i++ {
		d := name[i] - '0'
		if d > 9 {
			return 0, false
		}
		n = n*10 + int(d)
	}
	if n >= npools {
		return 0, false
	}
	return n, true
}
