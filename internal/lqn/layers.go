package lqn

import (
	"errors"
	"math"
	"sort"
)

// This file adds task-layer contention: the method-of-layers style
// solution in which software servers (task thread pools) queue
// independently of the hardware they run on. The default solver
// flattens the model onto processors, which is accurate while thread
// pools are generous (the case study's 50/20); when a task's
// multiplicity is small relative to the offered concurrency — and
// especially when its entries spend most of their time blocked on
// lower layers rather than computing — the thread pool itself becomes
// the queue, and only a layered solution sees it.
//
// The implementation alternates between two views until fixed point:
//
//   - software contention: for each class, a closed network whose
//     stations are the tasks the class's top-level calls reach
//     directly, each a multiserver with service time equal to its
//     entries' elapsed time (processor-inflated own demand plus the
//     full response of nested calls, including waits at lower tasks);
//
//   - lower-layer waits: each called task is itself a multiserver
//     station whose customers are its callers' busy threads, giving a
//     per-visit queueing wait that inflates the callers' elapsed
//     times;
//
//   - hardware contention: processor utilisation from every entry
//     inflates per-invocation service via the shadow-server factor
//     1/(1−ρ_other).
//
// Layered solving supports closed classes and synchronous calls;
// open classes, priorities, async and forwarding fall back with an
// error so callers are not silently mis-solved.

// layeredApplicable rejects model features outside the layered
// solver's scope.
func layeredApplicable(m *Model, r *resolved) error {
	for _, cl := range m.Classes {
		if cl.open() {
			return errors.New("lqn: layered solving does not support open classes")
		}
		if cl.Priority != 0 {
			return errors.New("lqn: layered solving does not support priorities")
		}
		for _, c := range cl.Calls {
			if c.kind() != Sync {
				return errors.New("lqn: layered solving supports synchronous reference calls only")
			}
		}
	}
	for _, t := range m.Tasks {
		for _, e := range t.Entries {
			if e.Demand2 != 0 {
				return errors.New("lqn: layered solving does not support second phases")
			}
			for _, c := range e.Calls {
				if c.kind() != Sync {
					return errors.New("lqn: layered solving supports synchronous calls only")
				}
			}
		}
	}
	return nil
}

// solveLayered runs the layered fixed point and fills a Result.
//
// All per-iteration state lives in flat index-addressed slices set up
// once before the loop — entries in sorted-name order, tasks in model
// order, processors in sorted-name order — so the fixed point allocates
// nothing per sweep and every floating-point sum accumulates in a fixed
// order.
func solveLayered(m *Model, r *resolved, opt Options) (*Result, error) {
	if err := layeredApplicable(m, r); err != nil {
		return nil, err
	}
	convergence := opt.convergence()

	K := len(m.Classes)
	entryNames := r.entryNames
	E := len(entryNames)
	entryIdx := make(map[string]int, E)
	for i, name := range entryNames {
		entryIdx[name] = i
	}

	// Static per-entry data: owning task, host processor, base demand,
	// and resolved call targets.
	type entryCall struct {
		mean    float64
		target  int // entry index
		taskIdx int // target's task index
	}
	T := len(m.Tasks)
	taskIdx := make(map[*Task]int, T)
	for ti, t := range m.Tasks {
		taskIdx[t] = ti
	}
	procNames := make([]string, 0, len(r.processors))
	for name := range r.processors {
		procNames = append(procNames, name)
	}
	sort.Strings(procNames)
	P := len(procNames)
	procIdx := make(map[string]int, P)
	for pi, name := range procNames {
		procIdx[name] = pi
	}

	entryTaskIdx := make([]int, E)
	entryProcIdx := make([]int, E)
	base := make([]float64, E) // demand / processor speed
	calls := make([][]entryCall, E)
	for i, name := range entryNames {
		e := r.entries[name]
		t := r.entryTask[name]
		entryTaskIdx[i] = taskIdx[t]
		entryProcIdx[i] = procIdx[t.Processor]
		base[i] = e.Demand / r.processors[t.Processor].Speed
		for _, c := range e.Calls {
			calls[i] = append(calls[i], entryCall{
				mean:    c.Mean,
				target:  entryIdx[c.Target],
				taskIdx: taskIdx[r.entryTask[c.Target]],
			})
		}
	}
	procDelay := make([]bool, P)
	procMult := make([]float64, P)
	for pi, name := range procNames {
		p := r.processors[name]
		procDelay[pi] = p.Sched == Delay
		procMult[pi] = float64(p.Mult)
	}
	// taskEntries[ti]: the task's entry indices in declaration order
	// (the order taskService folds them in).
	taskEntries := make([][]int, T)
	for ti, t := range m.Tasks {
		for _, e := range t.Entries {
			taskEntries[ti] = append(taskEntries[ti], entryIdx[e.Name])
		}
	}

	// Per-class visit ratios (sync-only: resp == util), flattened at
	// stride E.
	vis := make([]float64, K*E)
	for k, cl := range m.Classes {
		for name, v := range visitRatios(r, cl).resp {
			vis[k*E+entryIdx[name]] = v
		}
	}

	// topTasks[k]: the set of tasks the class calls directly, with the
	// per-request visit count.
	topTasks := make([][]topCall, K)
	maxTop := 0
	for k, cl := range m.Classes {
		agg := map[*Task]float64{}
		for _, c := range cl.Calls {
			agg[r.entryTask[c.Target]] += c.Mean
		}
		tasks := make([]*Task, 0, len(agg))
		for t := range agg {
			tasks = append(tasks, t)
		}
		sort.Slice(tasks, func(i, j int) bool { return tasks[i].Name < tasks[j].Name })
		for _, t := range tasks {
			topTasks[k] = append(topTasks[k], topCall{task: t, visits: agg[t]})
		}
		if len(topTasks[k]) > maxTop {
			maxTop = len(topTasks[k])
		}
	}

	// State, all index-addressed: task ti × class k at ti*K+k, entry i
	// × class k at k*E+i.
	X := make([]float64, K)          // class throughputs
	waitTask := make([]float64, T*K) // per-visit wait at each task
	qTask := make([]float64, T*K)    // mean jobs of class k present at task
	procQ := make([]float64, P)      // mean jobs present per processor
	newQ := make([]float64, P)       // next-round processor queue
	elAll := make([]float64, K*E)    // per-class entry elapsed times
	elDone := make([]bool, E)        // memo flags for the current walk
	rVisitBuf := make([]float64, maxTop)
	rValidBuf := make([]bool, maxTop)
	var totalPop int
	for _, cl := range m.Classes {
		totalPop += cl.Population
	}

	// elapsed computes entry elapsed times for class k given current
	// waits and processor queues, bottom-up over the acyclic graph into
	// elAll[k*E:].
	elapsed := func(k int) {
		el := elAll[k*E : k*E+E]
		for i := range elDone {
			elDone[i] = false
		}
		var walk func(i int) float64
		walk = func(i int) float64 {
			if elDone[i] {
				return el[i]
			}
			pi := entryProcIdx[i]
			var v float64
			if procDelay[pi] {
				v = base[i]
			} else {
				// MVA-style processor response: the invocation waits
				// behind the jobs already present (Schweitzer
				// correction for its own contribution), with the
				// Seidmann split for multiservers.
				c := procMult[pi]
				arr := procQ[pi]
				if totalPop > 0 {
					arr *= float64(totalPop-1) / float64(totalPop)
				}
				v = base[i]/c*(1+arr) + base[i]*(c-1)/c
			}
			for _, ec := range calls[i] {
				v += ec.mean * (waitTask[ec.taskIdx*K+k] + walk(ec.target))
			}
			el[i] = v
			elDone[i] = true
			return v
		}
		for i := 0; i < E; i++ {
			walk(i)
		}
	}

	// taskService computes a task's mean service time per class visit:
	// the visit-weighted elapsed time of its entries as invoked by the
	// class.
	taskService := func(ti, k int) float64 {
		var num, den float64
		for _, i := range taskEntries[ti] {
			v := vis[k*E+i]
			num += v * elAll[k*E+i]
			den += v
		}
		if den == 0 {
			return 0
		}
		return num / den
	}

	R := make([]float64, K)
	prevR := make([]float64, K)
	converged := false
	iter := 0
	for ; iter < maxSweeps; iter++ {
		// Per-class elapsed times under current waits/utilisations.
		for k := range m.Classes {
			elapsed(k)
		}

		// Software submodel per class: stations are the directly-called
		// tasks (multiserver via Seidmann), think as given. Single-class
		// exact-style Schweitzer sweep per class with others' loads
		// reflected through busy-thread occupancy.
		for k, cl := range m.Classes {
			if cl.Population == 0 {
				X[k], R[k] = 0, 0
				continue
			}
			var rTotal float64
			for tci, tc := range topTasks[k] {
				rValidBuf[tci] = false
				ti := taskIdx[tc.task]
				st := taskService(ti, k)
				if st <= 0 {
					continue
				}
				c := float64(tc.task.Mult)
				// Customers seen at the task: every class's jobs
				// present (queued + in service), with the Schweitzer
				// correction for the arriving job's own class.
				arriving := 0.0
				for j := 0; j < K; j++ {
					q := qTask[ti*K+j]
					if j == k {
						q *= math.Max(0, float64(cl.Population-1)) / float64(cl.Population)
					}
					arriving += q
				}
				// Seidmann multiserver: queueing portion st/c sees the
				// arriving jobs; the rest is residual delay.
				rVisit := st/c*(1+arriving) + st*(c-1)/c
				waitTask[ti*K+k] = rVisit - st
				if waitTask[ti*K+k] < 0 {
					waitTask[ti*K+k] = 0
				}
				rTotal += tc.visits * rVisit
				rVisitBuf[tci], rValidBuf[tci] = rVisit, true
			}
			R[k] = rTotal
			X[k] = float64(cl.Population) / (cl.Think + rTotal)
			// Little's law per station: jobs present = X × visit response.
			for tci, tc := range topTasks[k] {
				if rValidBuf[tci] {
					qTask[taskIdx[tc.task]*K+k] = X[k] * tc.visits * rVisitBuf[tci]
				}
			}
		}

		// Lower-layer waits: tasks called by other tasks queue their
		// callers' threads. Per-visit wait from the multiserver
		// approximation with throughput-derived occupancy.
		for ti, t := range m.Tasks {
			for k := range m.Classes {
				if isTop(topTasks[k], t) {
					continue // handled in the software submodel
				}
				// Total visits to t's entries for class k.
				var vTot, sAvg float64
				for _, i := range taskEntries[ti] {
					vTot += vis[k*E+i]
				}
				if vTot == 0 {
					waitTask[ti*K+k] = 0
					continue
				}
				sAvg = taskService(ti, k)
				// Occupancy from all classes.
				occ := 0.0
				for j := 0; j < K; j++ {
					var vj float64
					for _, i := range taskEntries[ti] {
						vj += vis[j*E+i]
					}
					occ += X[j] * vj * taskService(ti, j)
				}
				c := float64(t.Mult)
				rho := occ / c
				if rho > utilCap {
					rho = utilCap
				}
				// Wait per visit: Erlang-C-flavoured approximation
				// rho^c/(1-rho) × service/c.
				waitTask[ti*K+k] = sAvg / c * math.Pow(rho, c) / (1 - rho)
			}
		}

		// Processor state for the next round: mean jobs present
		// (Little's law over the per-invocation processor responses
		// just used).
		for pi := range newQ {
			newQ[pi] = 0
		}
		for k := range m.Classes {
			for i := 0; i < E; i++ {
				pi := entryProcIdx[i]
				if procDelay[pi] {
					continue
				}
				c := procMult[pi]
				arr := procQ[pi]
				if totalPop > 0 {
					arr *= float64(totalPop-1) / float64(totalPop)
				}
				resp := base[i]/c*(1+arr) + base[i]*(c-1)/c
				newQ[pi] += X[k] * vis[k*E+i] * resp
			}
		}
		// Damped queue update keeps the fixed point stable.
		for pi := range procQ {
			procQ[pi] = 0.5*procQ[pi] + 0.5*newQ[pi]
		}

		maxDR := 0.0
		for k := 0; k < K; k++ {
			if d := math.Abs(R[k] - prevR[k]); d > maxDR {
				maxDR = d
			}
			prevR[k] = R[k]
		}
		if maxDR < convergence {
			converged = true
			iter++
			break
		}
	}

	res := &Result{
		Classes:            make(map[string]ClassResult, K),
		ProcessorUtil:      make(map[string]float64, len(r.processors)),
		ClassProcessorUtil: make(map[string]map[string]float64, len(r.processors)),
		Iterations:         iter,
		Converged:          converged,
		order:              classOrder(m),
	}
	for k, cl := range m.Classes {
		res.Classes[cl.Name] = ClassResult{ResponseTime: R[k], Throughput: X[k]}
	}
	for _, name := range procNames {
		p := r.processors[name]
		var total float64
		per := make(map[string]float64, K)
		for k, cl := range m.Classes {
			var u float64
			for _, ename := range entryNames {
				if r.entryTask[ename].Processor != name {
					continue
				}
				u += X[k] * vis[k*E+entryIdx[ename]] * r.entries[ename].Demand / p.Speed / float64(p.Mult)
			}
			per[cl.Name] = u
			total += u
		}
		res.ProcessorUtil[name] = total
		res.ClassProcessorUtil[name] = per
	}
	return res, nil
}

// topCall is one directly-called task of a reference class.
type topCall struct {
	task   *Task
	visits float64
}

func topVisits(tops []topCall, t *Task) float64 {
	for _, tc := range tops {
		if tc.task == t {
			return tc.visits
		}
	}
	return 0
}

func isTop(tops []topCall, t *Task) bool {
	return topVisits(tops, t) > 0
}
