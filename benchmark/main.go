// Command benchmark is the repository's one benchmark: five workloads
// over the three paths a user waits on (a predserve request, a fleet
// run, the paper reproduction), measured end to end with tracing off
// and, in a separate traced run, layer by layer. BENCHMARK.json at the
// repository root names every metric this program prints; README.md in
// this directory says how they interact.
//
// Usage:
//
//	go run ./benchmark -workload serve_warm -seed 17 -seconds 10 -trace 0
//	go run ./benchmark -workload all [-traced] [-out report.json]
//	go run ./benchmark -agree
//
// A single-workload run prints, as the last line of standard output,
// one JSON object {correct, attempted, failed, metrics}: the end-to-end
// metrics with -trace 0, the per-layer metrics with -trace 1. The line
// before it is the detailed report (envelope, checks, fingerprint).
// "-workload all" re-executes this binary once per workload so peak
// RSS, GC state and caches never leak between workloads.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"perfpred/internal/instrument"
	"perfpred/internal/obs"
	"perfpred/internal/stats"
)

// options are one run's inputs.
type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	// quick runs every workload at 1/50 scale; the tier-1 test uses it.
	quick    bool
	traceOut string
}

// value is one metric as printed: a number and its unit.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract line: the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// check is one correctness check's verdict. A check the machine cannot
// exercise is "skipped" with its reason and is never counted as a pass.
type check struct {
	Name   string `json:"name"`
	Status string `json:"status"` // pass | fail | skipped
	Detail string `json:"detail,omitempty"`
}

// report is the detailed record of one workload run: who measured what
// on which machine, every check, and the sample counts behind the
// percentiles.
type report struct {
	Workload    string             `json:"workload"`
	Commit      string             `json:"commit"`
	GoVersion   string             `json:"go_version"`
	Cores       int                `json:"cores"`
	GoMaxProcs  int                `json:"gomaxprocs"`
	Seed        int64              `json:"seed"`
	Seconds     float64            `json:"seconds"`
	Traced      bool               `json:"traced"`
	Units       int                `json:"units"`
	UnitWallS   []float64          `json:"unit_wall_s"` // untraced units, in run order
	SetupRuns   int                `json:"setup_runs"`
	Checks      []check            `json:"checks"`
	Fingerprint string             `json:"fingerprint,omitempty"`
	Samples     map[string]int     `json:"samples,omitempty"`
	Info        map[string]float64 `json:"info,omitempty"`
	Result      result             `json:"result"`
}

// unitStats is what one fixed-work unit of a workload reports.
type unitStats struct {
	wall      time.Duration
	ops       uint64 // the workload's own operation: requests, simulated events, experiments
	attempted int    // operations and checks attempted
	failed    int
}

// instance is a set-up workload ready to run units. Every unit is a
// fixed amount of work, and -seconds decides only how many units run
// (see unitCount), so two commits do identical work.
type instance interface {
	// unit runs one unit; sp is nil when the unit is untraced.
	unit(sp *tracer) (unitStats, error)
	// finish runs the end-of-run checks and fills the report details
	// and, on traced runs, the workload's per-layer metrics; layer
	// already holds the micro-probes' results then.
	finish(rep *report, layer map[string]float64)
	close()
}

// workloadDef names a workload and knows how to set it up. unitSeconds
// is what one unit takes on the 2-core reference box.
type workloadDef struct {
	name        string
	unitSeconds float64
	setup       func(env *env) (instance, error)
}

// unitCount turns -seconds into a number of units. It is a count, not
// a deadline, so a run does the same work however fast the machine is:
// a slow spell may not change how many passes fill a cache or how many
// samples stand behind a percentile.
func (w workloadDef) unitCount(seconds float64) int {
	return max(1, int(math.Ceil(seconds/w.unitSeconds)))
}

// env is what a workload's set-up receives.
type env struct {
	opt options
	// reg is the private obs registry, enabled only around traced units.
	reg *obs.Registry
	// sp is the run's tracer; nil on untraced runs.
	sp *tracer
	// checks are the run-level verdicts; unitFails the per-unit checks
	// that failed (those are counted in their unit's stats).
	checks    []check
	unitFails []check
	// paperGolden overrides experiments_output.txt (tests perturb it).
	paperGolden []byte
	// serveWrap wraps the service handler (tests corrupt responses).
	serveWrap func(http.Handler) http.Handler
}

// scale is n, or a fiftieth of it (at least 1) on -quick runs.
func (e *env) scale(n int) int {
	if e.opt.quick {
		return max(1, n/50)
	}
	return n
}

func (e *env) addCheck(name string, ok bool, format string, args ...any) {
	c := check{Name: name, Status: "pass"}
	if !ok {
		c.Status = "fail"
		c.Detail = fmt.Sprintf(format, args...)
	}
	e.checks = append(e.checks, c)
}

var workloads = []workloadDef{
	{"serve_warm", 1, setupServeWarm},
	{"serve_churn", 2, setupServeChurn},
	{"fleet_routed", 3, setupFleetRouted},
	{"fleet_static", 3, setupFleetStatic},
	{"paper_repro", 3, setupPaperRepro},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	var trace int
	var tracedFlag, agree bool
	var out string
	fs.StringVar(&opt.workload, "workload", "all", "workload name, or all")
	fs.Int64Var(&opt.seed, "seed", 17, "seed of every generated input")
	fs.Float64Var(&opt.seconds, "seconds", 10, "how long to measure: sets the number of fixed-work units")
	fs.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	fs.BoolVar(&tracedFlag, "traced", false, "same as -trace 1")
	fs.BoolVar(&opt.quick, "quick", false, "1/50 of every count (smoke runs)")
	fs.StringVar(&out, "out", "", "also write the detailed reports as JSON to this file")
	fs.StringVar(&opt.traceOut, "trace-out", "", "traced runs: write the spans as JSONL to this file")
	fs.BoolVar(&agree, "agree", false, "run the untraced set twice and compare within the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	opt.traced = tracedFlag || trace == 1

	switch {
	case agree:
		return runAgree(opt, stdout, stderr)
	case opt.workload == "all":
		return runAll(opt, out, stdout, stderr)
	}
	w, ok := findWorkload(opt.workload)
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", opt.workload)
		return 2
	}
	rep, err := runWorkload(w, &env{opt: opt})
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	printReport(rep, stdout, stderr)
	if out != "" {
		if err := writeJSONFile(out, []*report{rep}); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	return exitCode(rep)
}

// exitCode is non-zero when any check or operation failed.
func exitCode(rep *report) int {
	if !rep.Result.Correct {
		return 1
	}
	return 0
}

// printReport writes the human summary to stderr and the two JSON
// lines (report, then the contract line) to stdout.
func printReport(rep *report, stdout, stderr io.Writer) {
	for _, c := range rep.Checks {
		if c.Status != "pass" {
			fmt.Fprintf(stderr, "benchmark: %s: check %s: %s %s\n", rep.Workload, c.Name, c.Status, c.Detail)
		}
	}
	line, _ := json.Marshal(struct {
		Report *report `json:"report"`
	}{rep})
	fmt.Fprintf(stdout, "%s\n", line)
	last, _ := json.Marshal(rep.Result)
	fmt.Fprintf(stdout, "%s\n", last)
}

func writeJSONFile(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// setupRuns is how many times an untraced run sets the workload up;
// setup_s is the median, so one slow start does not decide it.
const setupRuns = 5

// runWorkload sets the workload up, runs -seconds' worth of units and
// assembles the metrics. Untraced runs produce the end-to-end metrics.
// Traced runs spend the same units half untraced, half traced, in turn
// — the difference is the tracing overhead — and produce the per-layer
// metrics.
func runWorkload(w workloadDef, e *env) (*report, error) {
	if e.opt.traced {
		e.reg = obs.NewRegistry()
		e.sp = newTracer()
	}
	rep := &report{
		Workload: w.name, Commit: commit(), GoVersion: runtime.Version(),
		Cores: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		Seed: e.opt.seed, Seconds: e.opt.seconds, Traced: e.opt.traced,
		Samples: map[string]int{}, Info: map[string]float64{},
	}

	reps := setupRuns
	if e.opt.traced || e.opt.quick {
		reps = 1
	}
	var inst instance
	setups := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		if inst != nil {
			inst.close()
		}
		e.checks, e.unitFails = e.checks[:0], e.unitFails[:0]
		start := time.Now()
		var err error
		if inst, err = w.setup(e); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer inst.close()
	rep.SetupRuns = reps

	// Start every measurement from a collected heap so the set-up's
	// garbage is not charged to the first unit.
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	var plain, traced []unitStats
	var attempted, failed int
	var ops uint64
	rounds := w.unitCount(e.opt.seconds)
	if e.opt.traced {
		rounds = (rounds + 1) / 2 // each round is an untraced and a traced unit
	}
	if e.opt.quick {
		rounds = 1
	}
	tally := func(into *[]unitStats, u unitStats) {
		*into = append(*into, u)
		attempted, failed, ops = attempted+u.attempted, failed+u.failed, ops+u.ops
	}
	for i := 0; i < rounds; i++ {
		u, err := inst.unit(nil)
		if err != nil {
			return nil, err
		}
		tally(&plain, u)
		if e.opt.traced {
			instrument.EnableAll(e.reg)
			u, err = inst.unit(e.sp)
			instrument.EnableAll(nil)
			if err != nil {
				return nil, err
			}
			tally(&traced, u)
		}
	}
	runtime.ReadMemStats(&ms1)
	rep.Units = len(plain) + len(traced)

	walls, rates := unitSeries(plain)
	rep.UnitWallS = walls
	layer := map[string]float64{}
	if e.opt.traced {
		tw, _ := unitSeries(traced)
		base := stats.Percentile(walls, 50)
		layer["obs.tracing_overhead_pct"] = 100 * (stats.Percentile(tw, 50) - base) / base
		layer["go.alloc_bytes_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(ops)
		layer["go.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
		layer["go.gc_pause_total_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
		layer["trace.spans"] = float64(e.sp.len())
		rep.Info["trace.spans_dropped"] = float64(e.sp.dropped.Load())
		obsLayerMetrics(e.reg.Snapshot(), layer)
		runProbes(e, layer)
	}
	inst.finish(rep, layer)
	for _, c := range e.checks {
		switch c.Status {
		case "pass":
			attempted++
		case "fail":
			attempted++
			failed++
		}
	}
	rep.Checks = append(append(rep.Checks, e.checks...), e.unitFails...)
	rep.Result = result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]value{}}

	if !e.opt.traced {
		put := func(name string, v float64) {
			rep.Result.Metrics[name] = value{Value: v, Unit: unitOf(endToEnd, name)}
		}
		put("setup_s", stats.Percentile(setups, 50))
		put("wall_s", stats.Percentile(walls, 50))
		put("ops_per_s", stats.Percentile(rates, 50))
		put("peak_rss_mb", peakRSSMB())
		return rep, nil
	}
	for _, m := range perLayer {
		rep.Result.Metrics[m.Name] = value{Value: layer[m.Name], Unit: m.Unit}
		delete(layer, m.Name)
	}
	for name := range layer {
		return nil, fmt.Errorf("per-layer metric %q is measured but not declared", name)
	}
	if e.opt.traceOut != "" {
		if err := e.sp.writeJSONL(e.opt.traceOut); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// unitSeries returns each unit's wall seconds and operations per second.
func unitSeries(us []unitStats) (walls, rates []float64) {
	for _, u := range us {
		s := u.wall.Seconds()
		walls = append(walls, s)
		rates = append(rates, float64(u.ops)/s)
	}
	return walls, rates
}

// commit asks git for the checked-out revision; a checkout that is not
// a repository (or a machine without git) has none.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return string(bytes.TrimSpace(out))
}

// child re-executes this binary for one workload and returns its
// detailed report. The child is waited for before child returns.
func child(opt options, name string, stderr io.Writer) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-workload", name,
		"-seed", strconv.FormatInt(opt.seed, 10),
		"-seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64),
		"-trace", map[bool]string{false: "0", true: "1"}[opt.traced],
	}
	if opt.quick {
		args = append(args, "-quick")
	}
	if opt.traceOut != "" {
		// One file per workload, beside the one asked for.
		args = append(args, "-trace-out", filepath.Join(filepath.Dir(opt.traceOut), name+"."+filepath.Base(opt.traceOut)))
	}
	cmd := exec.Command(exe, args...)
	var outBuf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &outBuf, stderr
	runErr := cmd.Run()
	lines := bytes.Split(bytes.TrimSpace(outBuf.Bytes()), []byte("\n"))
	if len(lines) < 2 {
		if runErr == nil {
			runErr = errors.New("no report printed")
		}
		return nil, fmt.Errorf("%s: %w", name, runErr)
	}
	var wrapped struct {
		Report *report `json:"report"`
	}
	if err := json.Unmarshal(lines[len(lines)-2], &wrapped); err != nil || wrapped.Report == nil {
		return nil, fmt.Errorf("%s: unreadable report: %v", name, err)
	}
	return wrapped.Report, nil
}

// runAll runs every workload in its own child process and prints one
// line per workload.
func runAll(opt options, out string, stdout, stderr io.Writer) int {
	code := 0
	var reps []*report
	for _, w := range workloads {
		rep, err := child(opt, w.name, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			code = 1
			continue
		}
		reps = append(reps, rep)
		if exitCode(rep) != 0 {
			code = 1
		}
		line, _ := json.Marshal(struct {
			Workload string `json:"workload"`
			result
		}{w.name, rep.Result})
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if out != "" {
		if err := writeJSONFile(out, reps); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	return code
}
