package bench

import (
	"context"
	"fmt"

	"perfpred/internal/parallel"
	"perfpred/internal/trade"
	"perfpred/internal/workload"
)

// Every experiment that simulates has one shape: list the runs it
// needs as cells, start them all in one fan-out on the suite's worker
// pool, then assemble the table serially from the results by index.
// Row order, float summation order and the error reported (the first
// failing cell in list order) are those of a serial loop over the
// list, for any worker count; the cell list is the only copy of the
// populations, so the simulated and the tabulated grids cannot drift.
// The simulated testbed is deterministic for a fixed seed, so a cell
// is measured once per suite: the suite's cell memo serves every
// experiment and calibration that revisits it, and concurrent requests
// for one cell share a single simulation.

// measureCell identifies one simulated measurement of an experiment
// grid: an architecture under a client population and buy mix.
type measureCell struct {
	arch    workload.ServerArch
	clients int
	buyFrac float64
}

// cellsAt lists arch under the typical workload at each fraction of
// the saturation population nStar.
func cellsAt(arch workload.ServerArch, nStar float64, fracs []float64) []measureCell {
	cells := make([]measureCell, len(fracs))
	for i, frac := range fracs {
		cells[i] = measureCell{arch: arch, clients: int(frac * nStar)}
	}
	return cells
}

// cellKey is the memo key: the cell plus every MeasureOptions field
// that changes the result (Workers does not). Opt is exported and may
// change between two calls, so the key holds all of them.
func (s *Suite) cellKey(c measureCell) string {
	o := s.Opt
	return fmt.Sprintf("%s/%d/%.4f/%d/%g/%g", c.arch.Name, c.clients, c.buyFrac, o.Seed, o.WarmUp, o.Duration)
}

// measureCells measures every cell through the suite's memo, in one
// fan-out, and returns the results in cell order. Callers share the
// memoised results and must not mutate them.
func measureCells(s *Suite, cells []measureCell) ([]*trade.Result, error) {
	return parallel.Map(context.Background(), s.Opt.Workers, len(cells),
		func(_ context.Context, i int) (*trade.Result, error) {
			return s.cells.Do(s.cellKey(cells[i]), func() (*trade.Result, error) {
				s.fannedRuns.Add(1)
				c := cells[i]
				return trade.Measure(c.arch, workload.MixLoad(c.clients, c.buyFrac), s.Opt)
			})
		})
}

// simulateAll is the fan-out for runs the cell memo cannot describe —
// max-throughput benchmarks, single-request-type demand calibrations,
// and variants (session caches, critical sections, tiers, open
// streams, custom demands): job i makes exactly one simulator run.
func simulateAll[T any](s *Suite, n int, job func(i int) (T, error)) ([]T, error) {
	return parallel.Map(context.Background(), s.Opt.Workers, n,
		func(_ context.Context, i int) (T, error) {
			s.fannedRuns.Add(1)
			return job(i)
		})
}

// runConfigs is simulateAll over fixed-horizon configurations.
func runConfigs(s *Suite, cfgs []trade.Config) ([]*trade.Result, error) {
	return simulateAll(s, len(cfgs), func(i int) (*trade.Result, error) { return trade.Run(cfgs[i]) })
}

// config is a fixed-horizon run of the case-study database and demands
// under the suite's seed and window; experiments set the fields their
// variant adds.
func (s *Suite) config(server workload.ServerArch, load workload.Workload) trade.Config {
	return trade.Config{
		Server:   server,
		DB:       workload.CaseStudyDB(),
		Demands:  workload.CaseStudyDemands(),
		Load:     load,
		Seed:     s.Opt.Seed,
		WarmUp:   s.Opt.WarmUp,
		Duration: s.Opt.Duration,
	}
}
