package bench

import (
	"slices"

	"perfpred/internal/hist"
	"perfpred/internal/lqn"
	"perfpred/internal/trade"
	"perfpred/internal/workload"
)

// bottleneck parameters: 30% of requests hold a global lock for a mean
// of 10 ms of CPU, dropping AppServF's effective ceiling from 186 to
// ~1/(5.4ms+3ms) ≈ 119 req/s.
const (
	csMeanTime = 0.010
	csFraction = 0.30
)

// bottleneck reproduces the §8.1 implicit-queue discussion: a critical
// section creates a serialisation queue no model declares. The
// historical method calibrates straight over the measurements and
// absorbs it; the naive layered model misses it entirely; the profiled
// layered model (lock added as an explicit station) recovers most of
// it.
func (s *Suite) bottleneck() (*Table, error) {
	t := &Table{
		ID:     "Section 8.1 (bottleneck)",
		Title:  "Implicit critical-section queue: measured vs historical vs naive/profiled LQN",
		Header: []string{"Clients", "Measured (ms)", "Historical (ms)", "Naive LQN (ms)", "Profiled LQN (ms)"},
	}
	arch := workload.AppServF()
	demands, err := s.lqnDemands()
	if err != nil {
		return nil, err
	}

	csConfig := func(n int) trade.Config {
		cfg := s.config(arch, workload.TypicalWorkload(n))
		cfg.CriticalSection = &trade.CriticalSectionConfig{MeanTime: csMeanTime, Fraction: csFraction}
		return cfg
	}

	// Historical method: benchmark + calibrate on the CS-enabled system
	// exactly as on any other system — nothing special to model. The
	// ceiling run sizes every other population, so it runs alone; the
	// four calibration and five evaluation runs share one fan-out.
	csMax, err := trade.Run(csConfig(2 * int(workload.MaxThroughputF*workload.ThinkTimeMean)))
	if err != nil {
		return nil, err
	}
	xMax := csMax.Throughput
	gradient, err := s.gradient()
	if err != nil {
		return nil, err
	}
	nStar := xMax / gradient
	evalFracs := []float64{0.3, 0.6, 0.95, 1.3, 1.7}
	fracs := slices.Concat(calibrationFracs, evalFracs)
	cfgs := make([]trade.Config, len(fracs))
	for i, frac := range fracs {
		cfgs[i] = csConfig(int(frac * nStar))
	}
	results, err := runConfigs(s, cfgs)
	if err != nil {
		return nil, err
	}
	calPts := make([]hist.DataPoint, len(calibrationFracs))
	for i, frac := range calibrationFracs {
		calPts[i] = hist.DataPoint{Clients: frac * nStar, MeanRT: results[i].MeanRT}
	}
	histModel, err := hist.CalibrateServer(arch, xMax, gradient, calPts)
	if err != nil {
		return nil, err
	}

	lqnRT := func(n int, profiled bool) (float64, error) {
		model, err := lqn.NewTradeModel(arch, workload.CaseStudyDB(), demands, workload.TypicalWorkload(n))
		if err != nil {
			return 0, err
		}
		if profiled {
			if err := lqn.AddCriticalSection(model, arch.Speed, csMeanTime, csFraction); err != nil {
				return 0, err
			}
		}
		res, err := lqn.Solve(model, s.LQNOpt)
		if err != nil {
			return 0, err
		}
		return res.MeanResponseTime(), nil
	}

	for k := len(calibrationFracs); k < len(fracs); k++ {
		n, meas := cfgs[k].Load[0].Clients, results[k]
		h := histModel.Predict(float64(n))
		naive, err := lqnRT(n, false)
		if err != nil {
			return nil, err
		}
		prof, err := lqnRT(n, true)
		if err != nil {
			return nil, err
		}
		t.addRow(itoa(n), ms(meas.MeanRT), ms(h), ms(naive), ms(prof))
	}
	t.addNote("accuracy: historical %.1f%%, naive LQN %.1f%%, profiled LQN %.1f%%",
		accuracy(t, 2, 1, everyRow), accuracy(t, 3, 1, everyRow), accuracy(t, 4, 1, everyRow))
	t.addNote("bottleneck ceiling ≈%.0f req/s vs the unconstrained 186; the historical method absorbs implicit queues from data, the layered method needs them profiled into the model (§8.1)", xMax)
	return t, nil
}
