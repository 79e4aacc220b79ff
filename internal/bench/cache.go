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

// curveCache memoises measurements process-wide: the simulated testbed
// is deterministic for a fixed seed, so experiments that revisit a
// cell reuse the run. The singleflight Memo lets concurrent requests
// for one cell share a single simulation.
var curveCache parallel.Memo[string, *trade.Result]

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

// cellKey is the cache key: the cell plus every MeasureOptions field
// that changes the result (Workers does not). The run-control fields
// only count when adaptive control is on.
func (s *Suite) cellKey(c measureCell) string {
	o := s.Opt
	key := fmt.Sprintf("%s/%d/%.4f/%d/%g/%g", c.arch.Name, c.clients, c.buyFrac, o.Seed, o.WarmUp, o.Duration)
	if o.TargetRelErr > 0 {
		key += fmt.Sprintf("/adaptive:%g,%g,%g", o.TargetRelErr, o.Confidence, o.MaxDuration)
	}
	return key
}

// measure runs the cell's simulation, uncached.
func (c measureCell) measure(opt trade.MeasureOptions) (*trade.Result, error) {
	return trade.Measure(c.arch, workload.MixLoad(c.clients, c.buyFrac), opt)
}

// measureCells measures every cell through the cache, in one fan-out,
// and returns the results in cell order.
func measureCells(s *Suite, cells []measureCell) ([]*trade.Result, error) {
	return parallel.Map(context.Background(), s.Opt.Workers, len(cells),
		func(_ context.Context, i int) (*trade.Result, error) {
			return curveCache.Do(s.cellKey(cells[i]), func() (*trade.Result, error) {
				s.fannedRuns.Add(1)
				return cells[i].measure(s.Opt)
			})
		})
}

// simulateAll is the fan-out for runs that bypass the cache — the
// suite's calibrations, and variants the cache key cannot describe
// (session caches, critical sections, tiers, open streams, custom
// demands): job i makes exactly one simulator run.
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
