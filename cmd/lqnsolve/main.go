// Command lqnsolve solves a layered queuing network model from a JSON
// document and prints per-class response times, throughputs and
// processor utilisations — the role LQNS plays in the paper.
//
// Usage:
//
//	lqnsolve [-convergence 1e-6] [-exact] [-maxclients class:goal] model.json
//	lqnsolve -trade -server AppServF -clients 800 [-buy 0.25]
//
// With -trade the case-study model is built in-process instead of read
// from a file. -maxclients runs the §8.2 capacity search for
// "class:goalSeconds".
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"

	"perfpred/internal/lqn"
	"perfpred/internal/workload"
)

func main() {
	convergence := flag.Float64("convergence", 1e-6, "solver convergence criterion in seconds (paper: 0.020)")
	exact := flag.Bool("exact", false, "use exact single-class MVA instead of the Schweitzer approximation")
	layered := flag.Bool("layered", false, "solve with task-layer (thread pool) contention")
	maxClients := flag.String("maxclients", "", "search max clients for 'class:goalSeconds' (e.g. browse:0.3)")
	useTrade := flag.Bool("trade", false, "build the case-study Trade model instead of reading a file")
	server := flag.String("server", "AppServF", "case-study server for -trade (AppServS|AppServF|AppServVF)")
	clients := flag.Int("clients", 500, "client population for -trade")
	buy := flag.Float64("buy", 0, "buy-client fraction for -trade (0..1)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}

	opt := lqn.Options{Convergence: *convergence, ExactMVA: *exact, TaskLayering: *layered}
	model, err := loadModel(*useTrade, *server, *clients, *buy, flag.Args())
	if err != nil {
		fatal(err)
	}

	if *maxClients != "" {
		class, goal, err := parseGoal(*maxClients)
		if err != nil {
			fatal(err)
		}
		n, evals, err := lqn.MaxClientsSearch(model, class, goal, 1<<20, opt)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("max clients for %s under %.3fs: %d (%d solver evaluations)\n", class, goal, n, evals)
		return
	}

	res, err := lqn.Solve(model, opt)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("solved in %s (%d iterations, converged=%v)\n", res.SolveTime, res.Iterations, res.Converged)
	names := make([]string, 0, len(res.Classes))
	for name := range res.Classes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c := res.Classes[name]
		fmt.Printf("  class %-12s RT=%8.2fms  X=%8.2f/s\n", name, c.ResponseTime*1000, c.Throughput)
	}
	procs := make([]string, 0, len(res.ProcessorUtil))
	for name := range res.ProcessorUtil {
		procs = append(procs, name)
	}
	sort.Strings(procs)
	for _, name := range procs {
		fmt.Printf("  processor %-9s U=%6.3f\n", name, res.ProcessorUtil[name])
	}
}

func loadModel(useTrade bool, server string, clients int, buy float64, args []string) (*lqn.Model, error) {
	if useTrade {
		arch, err := workload.ServerByName(server)
		if err != nil {
			return nil, err
		}
		return lqn.NewTradeModel(arch, workload.CaseStudyDB(), workload.CaseStudyDemands(), workload.MixLoad(clients, buy))
	}
	if len(args) != 1 {
		return nil, fmt.Errorf("usage: lqnsolve [flags] model.json (or -trade)")
	}
	f, err := os.Open(args[0])
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return lqn.ReadModel(f)
}

func parseGoal(s string) (string, float64, error) {
	parts := strings.SplitN(s, ":", 2)
	if len(parts) != 2 {
		return "", 0, fmt.Errorf("want class:goalSeconds, got %q", s)
	}
	goal, err := strconv.ParseFloat(parts[1], 64)
	if err != nil {
		return "", 0, fmt.Errorf("bad goal in %q: %w", s, err)
	}
	// ParseFloat accepts NaN and Inf, and NaN fails every comparison in
	// the search: it would come back as capacity 0.
	if !(goal > 0) || math.IsInf(goal, 0) {
		return "", 0, fmt.Errorf("goal in %q must be a positive finite number of seconds", s)
	}
	return parts[0], goal, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lqnsolve:", err)
	os.Exit(1)
}
