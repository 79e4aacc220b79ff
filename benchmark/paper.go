package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"perfpred/internal/bench"
	"perfpred/internal/stats"
	"perfpred/internal/workload"
)

// paperSeed is the seed experiments_output.txt was generated with. The
// first pass of every run uses it, whatever -seed says, so every run
// checks its tables against the reference; later passes use seeds
// chosen by -seed. No two passes of a run share a seed, because
// internal/bench memoises simulated measurements process-wide by seed:
// a repeated seed would find them cached and skip the simulator, and
// the pass would stop being the same work.
const paperSeed = 17

// paperWorkers is fixed for the 2-core box, not read from the machine.
const paperWorkers = 2

// hostTimedColumns names, per experiment, the first column that prints
// host timings; those columns differ on every run and are left out of
// the comparison. Column 0 leaves the whole table out.
var hostTimedColumns = map[string]int{
	"delay":        0, // §8.5 per-prediction and start-up delays
	"ablation-mva": 4, // "Approx time", "Exact time"
}

// quickExperiments is the -quick pass: the experiments that cost least
// once the suite is calibrated, about a fifth of a full pass. They run
// at full fidelity, so their reference sections still apply.
var quickExperiments = []string{
	"table1", "table2", "gradient", "figure3", "figure4", "cache", "search", "open", "provider",
	"figure5-6", "figure7", "figure8", "uniform", "delay", "matrix",
	"ablation-mva", "ablation-convergence", "ablation-lastserver", "ablation-layers",
}

// paperInst is the batch user reproducing the paper's tables: every
// unit is one cold pass of all 27 experiments on a fresh bench.Suite. It is
// the only workload on the single-engine heap path, cold lqn.Solve,
// hist calibration, hybrid.Build and the rm slack sweeps, and uses
// neither shards nor the service.
type paperInst struct {
	e      *env
	names  []string
	golden map[string]string // comparable text per experiment
	expMS  map[string][]float64
	passes int
}

// setupPaperRepro is the start-up delay a fresh suite pays before its
// first table (the paper's §8.5 one-off cost): the shared calibration
// of all three methods, plus loading the reference output.
func setupPaperRepro(e *env) (instance, error) {
	p := &paperInst{e: e, names: bench.Experiments(), expMS: map[string][]float64{}}
	if e.opt.quick {
		p.names = quickExperiments
	}
	text := e.paperGolden
	if text == nil {
		var err error
		if text, err = readGolden(); err != nil {
			return nil, err
		}
	}
	var err error
	if p.golden, err = splitGolden(text, bench.Experiments()); err != nil {
		return nil, err
	}
	s := p.newSuite(setupSeed)
	for _, a := range workload.CaseStudyServers() {
		if _, err := s.HistModelFor(a); err != nil {
			return nil, err
		}
	}
	if _, err := s.Hybrid(); err != nil {
		return nil, err
	}
	if _, err := s.LaplaceScale(); err != nil {
		return nil, err
	}
	return p, nil
}

// laterSeeds are the suite seeds of a run's later passes: 1 to 36
// without paperSeed, each checked to complete all 27 experiments. They
// are a list, not arithmetic on -seed, because the harness does not
// survive every seed: at 37, for one, data-quantity rejects a
// calibration fit. setupSeed calibrates the set-up's suite and is none
// of them.
var laterSeeds = func() []int64 {
	var seeds []int64
	for s := int64(1); s <= 36; s++ {
		if s != paperSeed {
			seeds = append(seeds, s)
		}
	}
	return seeds
}()

const setupSeed = 38

// passSeed is the suite seed of pass k (0-based) of a run with -seed
// base: -seed picks where in laterSeeds the run starts.
func passSeed(base int64, k int) int64 {
	if k == 0 {
		return paperSeed
	}
	n := int64(len(laterSeeds))
	return laterSeeds[((base%n+n)%n+int64(k-1))%n]
}

func (p *paperInst) newSuite(seed int64) *bench.Suite {
	s := bench.NewSuite(seed)
	s.Opt.Workers = paperWorkers
	return s
}

func (p *paperInst) close() {}

// readGolden finds experiments_output.txt at the module root, whether
// the benchmark runs from the root (go run) or from its directory (go test).
func readGolden() ([]byte, error) {
	dir, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	return os.ReadFile(filepath.Join(dir, "experiments_output.txt"))
}

// moduleRoot is the nearest directory at or above the working
// directory that holds go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod at or above the working directory")
		}
		dir = parent
	}
}

// splitGolden cuts the reference output into one section per
// experiment, in paper order, and reduces each to its comparable text.
func splitGolden(text []byte, names []string) (map[string]string, error) {
	var sections []string
	for _, line := range strings.SplitAfter(string(text), "\n") {
		if strings.HasPrefix(line, "== ") {
			sections = append(sections, "")
		}
		if len(sections) > 0 {
			sections[len(sections)-1] += line
		}
	}
	if len(sections) != len(names) {
		return nil, fmt.Errorf("reference output has %d sections, want %d", len(sections), len(names))
	}
	out := make(map[string]string, len(names))
	for i, name := range names {
		out[name] = comparableText(name, sections[i])
	}
	return out, nil
}

// comparableText is an experiment's rendered table with host-timed columns
// removed; every other experiment is compared byte for byte.
func comparableText(name, text string) string {
	col, timed := hostTimedColumns[name]
	if !timed {
		return text
	}
	if col == 0 {
		return ""
	}
	var b strings.Builder
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "  ") || strings.HasPrefix(line, "  note:") {
			b.WriteString(line + "\n")
			continue
		}
		// Cells are separated by two or more spaces.
		var cells []string
		for _, c := range strings.Split(strings.TrimSpace(line), "  ") {
			if c = strings.TrimSpace(c); c != "" {
				cells = append(cells, c)
			}
		}
		if len(cells) > col {
			cells = cells[:col]
		}
		b.WriteString(strings.Join(cells, " | ") + "\n")
	}
	return b.String()
}

func (p *paperInst) unit(sp *tracer) (unitStats, error) {
	req := int64(sp.len() + 1)
	root := sp.begin(sp.name("bench.pass"), 0, req)
	rendered := make(map[string]string, len(p.names))
	var buf bytes.Buffer
	start := time.Now()
	s := p.newSuite(passSeed(p.e.opt.seed, p.passes))
	for _, name := range p.names {
		id := sp.begin(sp.name("bench.exp."+name), root, req)
		t0 := time.Now()
		t, err := s.Run(name)
		if err != nil {
			return unitStats{}, fmt.Errorf("experiment %s: %w", name, err)
		}
		buf.Reset()
		t.Fprint(&buf)
		sp.end(id)
		p.expMS[name] = append(p.expMS[name], float64(time.Since(t0))/1e6)
		rendered[name] = comparableText(name, buf.String())
	}
	u := unitStats{wall: time.Since(start), ops: uint64(len(p.names))}
	sp.end(root)

	p.passes++
	if p.passes > 1 {
		return u, nil // only the first pass ran at the reference's seed
	}
	for _, name := range p.names {
		if col, timed := hostTimedColumns[name]; timed && col == 0 {
			continue // host timings only: nothing to compare
		}
		p.e.unitCheck(&u, "paper."+name, rendered[name] == p.golden[name], "differs from its section of experiments_output.txt")
	}
	return u, nil
}

func (p *paperInst) finish(rep *report, layer map[string]float64) {
	rep.Samples["paper.passes"] = p.passes
	p.e.checks = append(p.e.checks, check{Name: "paper.delay", Status: "skipped",
		Detail: "the table holds only host timings, which differ on every run"})
	if p.e.sp == nil {
		return
	}
	for _, name := range p.names {
		layer["bench.exp_ms."+name] = stats.Percentile(p.expMS[name], 50)
	}
}
