package regress

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"perfpred/internal/parallel"
	"perfpred/internal/sim"
	"perfpred/internal/trade"
	"perfpred/internal/workload"
)

// TrainConfig describes a simulator-backed training run.
type TrainConfig struct {
	// Archs are the architectures to train models for.
	Archs []workload.ServerArch
	// BuyFracs are the mixes sampled per architecture (nil = typical
	// all-browse workload only, i.e. []float64{0}).
	BuyFracs []float64
	// SamplesPerMix is how many populations are drawn per
	// (architecture, mix) cell (default 8).
	SamplesPerMix int
	// Seed drives the population draws and every measurement run;
	// equal seeds give bit-identical training sets and fits.
	Seed int64
	// Opt tunes the underlying simulator measurements. Opt.Workers
	// bounds measurement concurrency only — fits are bit-identical at
	// any worker count.
	Opt trade.MeasureOptions
	// Fit tunes the regression itself.
	Fit FitConfig
}

func (c TrainConfig) withDefaults() TrainConfig {
	if len(c.BuyFracs) == 0 {
		c.BuyFracs = []float64{0}
	}
	if c.SamplesPerMix == 0 {
		c.SamplesPerMix = 8
	}
	return c
}

// maxPopFactor puts the top of the sampled population range at 1.6×
// the architecture's saturation population Xmax × think: comfortably
// past the knee.
const maxPopFactor = 1.6

// drawPopulations picks SamplesPerMix distinct populations for one
// (architecture, mix) cell: the two range endpoints plus seeded
// uniform draws in between, sorted ascending. All draws happen before
// any simulation starts, from a stream split deterministically per
// cell, so the training grid is a pure function of the config.
func drawPopulations(arch workload.ServerArch, cell uint64, cfg TrainConfig) []int {
	sat := arch.MaxThroughputTypical * workload.ThinkTimeMean
	maxPop := int(sat * maxPopFactor)
	if maxPop < cfg.SamplesPerMix+2 {
		maxPop = cfg.SamplesPerMix + 2
	}
	minPop := maxPop / 50
	if minPop < 1 {
		minPop = 1
	}
	rng := sim.NewStream(sim.SplitSeed(cfg.Seed, cell))
	seen := map[int]bool{minPop: true, maxPop: true}
	pops := []int{minPop, maxPop}
	for len(pops) < cfg.SamplesPerMix {
		p := minPop + int(rng.Float64()*float64(maxPop-minPop))
		if p < 1 || seen[p] {
			continue
		}
		seen[p] = true
		pops = append(pops, p)
	}
	// Ascending order fixes the sample order the fit sees.
	slices.Sort(pops)
	return pops
}

// Train measures a seeded grid of simulator runs and fits the model:
// Measure, then FitMeasured. The startup cost (simulated seconds and
// sample count) is recorded in Model.Stats — the number the four-family
// comparison holds against hybrid's calibration runs.
func Train(cfg TrainConfig) (*Model, error) {
	samples, err := Measure(cfg)
	if err != nil {
		return nil, err
	}
	return FitMeasured(cfg, samples)
}

// Measure is the simulator-backed part of Train: it lays out the seeded
// sample grid and measures every point, returning the samples in the
// order the fit consumes them. The result is a pure function of cfg (at
// any Opt.Workers), so a caller may keep it and refit with FitMeasured
// instead of simulating again.
func Measure(cfg TrainConfig) ([]Sample, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Archs) == 0 {
		return nil, errors.New("regress: no architectures to train")
	}
	for _, f := range cfg.BuyFracs {
		if f < 0 || f > 1 {
			return nil, fmt.Errorf("regress: buy fraction %v outside [0,1]", f)
		}
	}

	// Phase 1 (serial, seeded): lay out the full sample grid, in the
	// fixed order the fit will see.
	var (
		samples []Sample
		archs   []workload.ServerArch // archs[i] is samples[i]'s architecture
	)
	cell := uint64(0)
	for _, arch := range cfg.Archs {
		for _, bf := range cfg.BuyFracs {
			for _, n := range drawPopulations(arch, cell, cfg) {
				samples = append(samples, Sample{Arch: arch.Name, Clients: n, BuyFrac: bf})
				archs = append(archs, arch)
			}
			cell++
		}
	}

	// Phase 2 (parallel): measure each grid point in its own seeded
	// run. Each cell's seed depends only on its grid index, so the
	// measurements are bit-identical at any worker count.
	results, err := parallel.Map(context.Background(), cfg.Opt.Workers, len(samples),
		func(_ context.Context, i int) (float64, error) {
			o := cfg.Opt
			o.Seed = sim.SplitSeed(cfg.Seed, uint64(1_000_003+i))
			res, err := trade.Measure(archs[i], workload.MixLoad(samples[i].Clients, samples[i].BuyFrac), o)
			if err != nil {
				return 0, err
			}
			return res.MeanRT, nil
		})
	if err != nil {
		return nil, err
	}
	for i := range samples {
		samples[i].MeanRT = results[i]
	}
	return samples, nil
}

// FitMeasured is the rest of Train (serial, fixed order): it fits the
// model Train(cfg) returns from the samples Measure(cfg) returned, now
// or earlier. Stats report the measurement those samples cost — sample
// count and simulated seconds.
func FitMeasured(cfg TrainConfig, samples []Sample) (*Model, error) {
	cfg = cfg.withDefaults()
	m, err := fit(samples, cfg.Archs, workload.CaseStudyDemands(), workload.ThinkTimeMean, cfg.Fit)
	if err != nil {
		return nil, err
	}
	m.QueryBuyFrac = cfg.BuyFracs[0]
	m.Stats = TrainStats{
		Samples:    len(samples),
		SimSeconds: cfg.SimSeconds(len(samples)),
	}
	return m, nil
}

// SimSeconds is what measuring n samples under cfg costs in simulated
// seconds (warm-up + measured horizon each). Zero options mirror trade's
// measurement defaults: 60 s warm-up, 240 s horizon.
func (c TrainConfig) SimSeconds(n int) float64 {
	warm, dur := c.Opt.WarmUp, c.Opt.Duration
	if warm == 0 {
		warm = 60
	}
	if dur == 0 {
		dur = 240
	}
	return float64(n) * (warm + dur)
}
