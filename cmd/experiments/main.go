// Command experiments regenerates the paper's tables and figures from
// scratch: it calibrates all three prediction methods against the
// simulated testbed and prints each experiment's rows alongside the
// values the paper reports.
//
// Usage:
//
//	experiments [-seed 17] [-workers N] [-list] [-metrics-addr :9100] [-report metrics.json] [name ...]
//	experiments -scenario spec.json [-window 30] [-duration 420]
//
// With no names, every paper experiment runs in paper order; the
// studies beyond the paper (-list names them) run only when named, and
// render through the same suite, seed and -format. Sweeps fan out
// across -workers concurrent simulations (default: all cores);
// -workers 1 reproduces the exact serial evaluation order. The
// emitted tables are byte-identical for every worker count — only the
// wall clock changes, which is reported per experiment on stderr.
//
// With -scenario, the named experiments are replaced by a windowed
// transient run of the given declarative workload spec (see
// internal/scenario and examples/scenarios/): the simulated testbed
// runs the spec's time-varying traffic from a cold start and the
// table reports, per window, the spec's offered rate alongside the
// measured completions, throughput and mean response time, and the
// error of the historical, layered and hybrid predictions at the
// window's mean load.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"perfpred/internal/bench"
	"perfpred/internal/instrument"
	"perfpred/internal/scenario"
)

func main() {
	seed := flag.Int64("seed", 17, "measurement seed (equal seeds reproduce identical tables)")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "max concurrent simulations/solves per sweep (1 = serial)")
	list := flag.Bool("list", false, "list experiment names and exit")
	format := flag.String("format", "text", "output format: text|json")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. :9100)")
	report := flag.String("report", "", "write a JSON metrics snapshot to this file on exit")
	scenarioPath := flag.String("scenario", "", "run a declarative workload spec (JSON file) as a windowed transient experiment instead of the paper tables")
	window := flag.Float64("window", 30, "window width in simulated seconds for -scenario")
	duration := flag.Float64("duration", 420, "simulated seconds for -scenario")
	flag.Parse()

	writeReport, err := instrument.Flags("experiments", *metricsAddr, *report)
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := writeReport(); err != nil {
			fatal(err)
		}
	}()

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

	if *list {
		for _, name := range bench.Experiments() {
			fmt.Println(name)
		}
		fmt.Println("\nstudies beyond the paper (run by name; -scenario spec.json is the fourth):")
		for _, name := range bench.Studies() {
			fmt.Println(name)
		}
		return
	}
	if *format != "text" && *format != "json" {
		fatal(fmt.Errorf("unknown format %q (want text or json)", *format))
	}
	emit := func(t *bench.Table) {
		if *format == "json" {
			if err := t.FprintJSON(os.Stdout); err != nil {
				fatal(err)
			}
			return
		}
		t.Fprint(os.Stdout)
	}

	suite := bench.NewSuite(*seed)
	suite.Opt.Workers = *workers
	if *scenarioPath != "" {
		sc, err := scenario.Load(*scenarioPath)
		if err != nil {
			fatal(err)
		}
		t, err := suite.ScenarioWindows(sc, *window, *duration)
		if err != nil {
			fatal(err)
		}
		emit(t)
		return
	}
	names := flag.Args()
	if len(names) == 0 {
		names = bench.Experiments()
	}
	for _, name := range names {
		start := time.Now()
		t, err := suite.Run(name)
		if err != nil {
			fatal(fmt.Errorf("experiment %s: %w", name, err))
		}
		emit(t)
		// Wall clock goes to stderr so stdout stays byte-identical
		// across worker counts and runs.
		fmt.Fprintf(os.Stderr, "experiments: %s in %v (workers=%d)\n", name, time.Since(start).Round(time.Millisecond), *workers)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
