package lqn

import (
	"errors"
	"fmt"
	"math"
)

// utilCap bounds the background-load denominator so transient
// overloads during iteration cannot divide by zero.
const utilCap = 0.999

// mvaWorkspace is the reusable state of the flattened MVA kernel. All
// matrices are stride-indexed contiguous slices: station i, class k
// lives at i*K+k. Buffers grow on demand and are reused across solves,
// so repeated solves on same-shaped models allocate nothing.
//
// After a converged Schweitzer solve the queue-length matrix q holds
// the solution; a warm-started follow-up solve on a same-shaped model
// seeds its iteration from it (see solveSchweitzer).
type mvaWorkspace struct {
	// Seidmann split of the per-class demands: queueing portion D/c and
	// residual delay D*(c-1)/c.
	dq, dd []float64 // I×K
	// q is the Schweitzer iterate: class k's mean customers at station
	// i. It survives between solves as the warm-start seed.
	q   []float64 // I×K
	rik []float64 // I×K per-station response times
	// Per-class solution vectors.
	X, R, prevR []float64 // K
	think       []float64 // K
	pop         []int     // K
	prio        []int     // K
	// Per-station vectors.
	U        []float64 // I per-server utilisation
	openUtil []float64 // I exogenous open-class utilisation
	bg       []float64 // I hoisted per-class-update background load
	bgFree   []bool    // I station provably has zero static background
	closedQ  []float64 // I total closed queue (open-class response path)
	// hasHigher[k] reports whether any class outranks class k — with
	// bgFree it selects the fast inflation-free path.
	hasHigher []bool // K

	// Solution metadata.
	iterations int
	converged  bool
	usedWarm   bool // last Schweitzer solve started from a warm iterate

	// Warm-start bookkeeping: the shape q was converged for.
	warmI, warmK int
	warmOK       bool
}

// growF returns s with length n, reusing its backing array when it is
// large enough.
func growF(s []float64, n int) []float64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]float64, n)
}

func growI(s []int, n int) []int {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int, n)
}

func growB(s []bool, n int) []bool {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]bool, n)
}

// invalidateWarm forgets the warm-start seed.
func (ws *mvaWorkspace) invalidateWarm() { ws.warmOK = false }

// background returns the utilisation class k must defer to at station
// i: open load, everyone's non-response work, and strictly-higher-
// priority response work.
func (ws *mvaWorkspace) background(p *solvePlan, i, k, K int) float64 {
	u := ws.openUtil[i]
	c := float64(p.stServers[i])
	for j := 0; j < K; j++ {
		u += ws.X[j] * p.stExtra[i*K+j] / c
		if ws.prio[j] > ws.prio[k] {
			u += ws.X[j] * p.stDemand[i*K+j] / c
		}
	}
	if u > utilCap {
		return utilCap
	}
	if u < 0 {
		return 0
	}
	return u
}

// solveSchweitzer runs multiclass Schweitzer approximate MVA on the
// plan's closed network. Station background load — open-class
// utilisation, second phases, async subtrees and higher-priority work
// — inflates a class's effective demand by 1/(1−ρ_background), the
// standard shadow-server approximation. Iteration stops when every
// class's response time changes by less than convergence seconds (the
// paper's LQNS criterion), or after maxSweeps sweeps.
//
// warm seeds the queue-length iterate from the previous converged
// solve when the shapes match — the initial guess changes, the fixed
// point does not, so adjacent-population sweeps converge in a handful
// of sweeps instead of dozens.
func (ws *mvaWorkspace) solveSchweitzer(p *solvePlan, convergence float64, warm bool) error {
	K := len(p.closed)
	I := len(p.procNames)
	if K == 0 {
		return errors.New("lqn: mva needs matching populations and think times")
	}

	// Seidmann split for multiservers: queueing portion D/c, delay
	// portion D*(c-1)/c.
	ws.dq = growF(ws.dq, I*K)
	ws.dd = growF(ws.dd, I*K)
	for i := 0; i < I; i++ {
		for k := 0; k < K; k++ {
			if !p.stQueueing[i] {
				ws.dq[i*K+k] = 0
				ws.dd[i*K+k] = p.stDemand[i*K+k]
				continue
			}
			c := float64(p.stServers[i])
			ws.dq[i*K+k] = p.stDemand[i*K+k] / c
			ws.dd[i*K+k] = p.stDemand[i*K+k] * (c - 1) / c
		}
	}

	useWarm := warm && ws.warmOK && ws.warmI == I && ws.warmK == K
	ws.usedWarm = useWarm
	ws.warmOK = false
	ws.q = growF(ws.q, I*K)
	ws.X = growF(ws.X, K)
	ws.R = growF(ws.R, K)
	ws.prevR = growF(ws.prevR, K)
	ws.rik = growF(ws.rik, I*K)
	for k := 0; k < K; k++ {
		if !useWarm || ws.pop[k] == 0 {
			// Cold start (and zero-population classes under a warm one,
			// whose stale queues would otherwise pollute the arriving
			// sums): the uniform 1/I spread of the legacy solver.
			ws.X[k] = 0
			for i := 0; i < I; i++ {
				ws.q[i*K+k] = 0
				if ws.pop[k] > 0 {
					ws.q[i*K+k] = float64(ws.pop[k]) / float64(I)
				}
			}
		}
		ws.R[k] = 0
		// prevR starts at zero either way, so convergence is still
		// judged on two consecutive sweeps of the new parameters.
		ws.prevR[k] = 0
	}

	// Static background analysis: a station with no open load and no
	// non-response work inflicts zero background on any class no class
	// outranks, so the O(K) background scan is skipped entirely on the
	// hot path (exactly 1/(1-0) = 1 inflation).
	ws.bg = growF(ws.bg, I)
	ws.bgFree = growB(ws.bgFree, I)
	for i := 0; i < I; i++ {
		free := ws.openUtil[i] == 0
		for j := 0; free && j < K; j++ {
			free = p.stExtra[i*K+j] == 0
		}
		ws.bgFree[i] = free
	}
	ws.hasHigher = growB(ws.hasHigher, K)
	for k := 0; k < K; k++ {
		higher := false
		for j := 0; j < K; j++ {
			if ws.prio[j] > ws.prio[k] {
				higher = true
				break
			}
		}
		ws.hasHigher[k] = higher
	}

	iter := 0
	ws.converged = false
	for ; iter < maxSweeps; iter++ {
		maxDQ := 0.0
		for k := 0; k < K; k++ {
			if ws.pop[k] == 0 {
				ws.X[k], ws.R[k] = 0, 0
				continue
			}
			// Hoisted background pass: one O(K) scan per needed station
			// per class update, instead of a closure call inside the
			// station loop. X and q are not mutated until after the
			// station loop, so the values are identical.
			if ws.hasHigher[k] {
				for i := 0; i < I; i++ {
					if p.stQueueing[i] && ws.dq[i*K+k] > 0 {
						ws.bg[i] = ws.background(p, i, k, K)
					}
				}
			} else {
				for i := 0; i < I; i++ {
					if p.stQueueing[i] && ws.dq[i*K+k] > 0 && !ws.bgFree[i] {
						ws.bg[i] = ws.background(p, i, k, K)
					}
				}
			}
			var rTotal float64
			for i := 0; i < I; i++ {
				var r float64
				if p.stQueueing[i] && ws.dq[i*K+k] > 0 {
					// Schweitzer estimate of the queue seen at
					// arrival: same-or-higher priority classes only —
					// lower-priority work is pre-empted, not queued
					// behind.
					arriving := 0.0
					for j := 0; j < K; j++ {
						if ws.prio[j] < ws.prio[k] {
							continue
						}
						if j == k {
							arriving += ws.q[i*K+j] * float64(ws.pop[k]-1) / float64(ws.pop[k])
						} else {
							arriving += ws.q[i*K+j]
						}
					}
					if ws.bgFree[i] && !ws.hasHigher[k] {
						// Background provably zero: 1/(1−0) = 1, so the
						// inflation multiply is dropped (bit-identical).
						r = ws.dq[i*K+k]*(1+arriving) + ws.dd[i*K+k]
					} else {
						inflate := 1 / (1 - ws.bg[i])
						r = ws.dq[i*K+k]*inflate*(1+arriving) + ws.dd[i*K+k]
					}
				} else {
					r = ws.dq[i*K+k] + ws.dd[i*K+k]
				}
				ws.rik[i*K+k] = r
				rTotal += r
			}
			ws.R[k] = rTotal
			ws.X[k] = float64(ws.pop[k]) / (ws.think[k] + rTotal)
			for i := 0; i < I; i++ {
				nq := ws.X[k] * ws.rik[i*K+k]
				if d := math.Abs(nq - ws.q[i*K+k]); d > maxDQ {
					maxDQ = d
				}
				ws.q[i*K+k] = nq
			}
		}
		maxDR := 0.0
		for k := 0; k < K; k++ {
			if d := math.Abs(ws.R[k] - ws.prevR[k]); d > maxDR {
				maxDR = d
			}
			ws.prevR[k] = ws.R[k]
		}
		// The queue-length tolerance scales with the response-time
		// criterion so a coarse criterion (the paper's 20 ms) actually
		// stops early — the source of its small-spacing noise.
		if maxDR < convergence && maxDQ < math.Max(1e-6, convergence) {
			ws.converged = true
			iter++
			break
		}
	}
	ws.iterations = iter

	ws.U = growF(ws.U, I)
	for i := 0; i < I; i++ {
		u := ws.openUtil[i]
		for k := 0; k < K; k++ {
			u += ws.X[k] * (p.stDemand[i*K+k] + p.stExtra[i*K+k]) / float64(p.stServers[i])
		}
		ws.U[i] = u
	}

	ws.warmI, ws.warmK = I, K
	ws.warmOK = ws.converged
	return nil
}

// exactApplicable rejects features the exact recursion does not cover.
func (p *solvePlan) exactApplicable(ws *mvaWorkspace) error {
	if len(p.closed) != 1 || len(p.open) != 0 {
		return errors.New("lqn: exact MVA supports exactly one closed class and no open classes")
	}
	for i := range p.procNames {
		if p.stExtra[i] != 0 {
			return errors.New("lqn: exact MVA does not support second phases or asynchronous calls")
		}
		if ws.openUtil[i] != 0 {
			return errors.New("lqn: exact MVA does not support open load")
		}
	}
	return nil
}

// solveExact runs the exact single-class MVA recursion (with the
// Seidmann multiserver transformation), for the ablation comparison
// against the Schweitzer approximation. K is 1, so the flattened
// matrices are plain per-station vectors.
func (ws *mvaWorkspace) solveExact(p *solvePlan) error {
	pop := ws.pop[0]
	think := ws.think[0]
	if pop < 0 {
		return fmt.Errorf("lqn: negative population %d", pop)
	}
	I := len(p.procNames)
	ws.dq = growF(ws.dq, I)
	ws.dd = growF(ws.dd, I)
	for i := 0; i < I; i++ {
		if !p.stQueueing[i] {
			ws.dq[i] = 0
			ws.dd[i] = p.stDemand[i]
			continue
		}
		c := float64(p.stServers[i])
		ws.dq[i] = p.stDemand[i] / c
		ws.dd[i] = p.stDemand[i] * (c - 1) / c
	}
	ws.q = growF(ws.q, I)
	for i := range ws.q {
		ws.q[i] = 0
	}
	var x, rTotal float64
	for n := 1; n <= pop; n++ {
		rTotal = 0
		for i := 0; i < I; i++ {
			var r float64
			if ws.dq[i] > 0 {
				r = ws.dq[i]*(1+ws.q[i]) + ws.dd[i]
			} else {
				r = ws.dd[i]
			}
			rTotal += r
		}
		x = float64(n) / (think + rTotal)
		for i := 0; i < I; i++ {
			var r float64
			if ws.dq[i] > 0 {
				r = ws.dq[i]*(1+ws.q[i]) + ws.dd[i]
			} else {
				r = ws.dd[i]
			}
			ws.q[i] = x * r
		}
	}
	ws.X = growF(ws.X, 1)
	ws.R = growF(ws.R, 1)
	ws.X[0], ws.R[0] = x, rTotal
	ws.U = growF(ws.U, I)
	for i := 0; i < I; i++ {
		ws.U[i] = x * p.stDemand[i] / float64(p.stServers[i])
	}
	ws.iterations = pop
	ws.converged = true
	ws.usedWarm = false
	// The exact recursion's queue lengths are not a Schweitzer iterate;
	// never warm-start from them.
	ws.invalidateWarm()
	return nil
}
