package rm

import (
	"errors"
	"math"
)

// EvalFamily is one predictor family entered into the accuracy-vs-
// startup-cost comparison: the model plus what it cost to bring up
// (hybrid's calibration runs, the regression family's training set,
// the historical method's measurement history).
type EvalFamily struct {
	Name string
	Pred Predictor
	// StartupSimSeconds is the simulated (or measured-testbed) seconds
	// the family consumed before it could answer its first query.
	StartupSimSeconds float64
}

// EvalScenario is one architecture's probe set: response-time queries
// at the given populations and capacity queries at the given goals.
type EvalScenario struct {
	Arch    string
	Pops    []int
	GoalRTs []float64
}

// FamilyScore is one family's row of the comparison table.
type FamilyScore struct {
	Name string
	// MeanAbsRTErrPct / MaxAbsRTErrPct summarise |pred−true|/true over
	// every (arch, population) response-time probe.
	MeanAbsRTErrPct float64
	MaxAbsRTErrPct  float64
	// MeanAbsCapErrPct summarises capacity-prediction error over every
	// (arch, goal) probe.
	MeanAbsCapErrPct  float64
	MaxAbsCapErrPct   float64
	RTProbes          int
	CapProbes         int
	StartupSimSeconds float64
}

// PredictorEval scores every family against the same truth on the
// same scenarios — the table where HYDRA, LQN, hybrid and the
// regression family land side by side. truth is typically a SimOracle
// (memoised, so the truth curve is measured once however many
// families are scored). Scenarios and families are evaluated serially
// in the given order; determinism is inherited from the predictors.
func PredictorEval(families []EvalFamily, truth Predictor, scenarios []EvalScenario) ([]FamilyScore, error) {
	if len(families) == 0 || len(scenarios) == 0 {
		return nil, errors.New("rm: predictor eval needs families and scenarios")
	}
	// Probe the truth once up front.
	type rtKey struct {
		arch string
		n    int
	}
	type capKeyT struct {
		arch string
		goal float64
	}
	trueRT := make(map[rtKey]float64)
	trueCap := make(map[capKeyT]float64)
	for _, sc := range scenarios {
		for _, n := range sc.Pops {
			rt, err := truth.Predict(sc.Arch, float64(n))
			if err != nil {
				return nil, err
			}
			trueRT[rtKey{sc.Arch, n}] = rt
		}
		for _, goal := range sc.GoalRTs {
			c, err := truth.MaxClients(sc.Arch, goal)
			if err != nil {
				return nil, err
			}
			trueCap[capKeyT{sc.Arch, goal}] = c
		}
	}
	scores := make([]FamilyScore, 0, len(families))
	for _, fam := range families {
		score := FamilyScore{Name: fam.Name, StartupSimSeconds: fam.StartupSimSeconds}
		var rtErrSum, capErrSum float64
		for _, sc := range scenarios {
			for _, n := range sc.Pops {
				want := trueRT[rtKey{sc.Arch, n}]
				if want <= 0 {
					continue
				}
				got, err := fam.Pred.Predict(sc.Arch, float64(n))
				if err != nil {
					return nil, err
				}
				e := 100 * math.Abs(got-want) / want
				rtErrSum += e
				if e > score.MaxAbsRTErrPct {
					score.MaxAbsRTErrPct = e
				}
				score.RTProbes++
			}
			for _, goal := range sc.GoalRTs {
				want := trueCap[capKeyT{sc.Arch, goal}]
				if want <= 0 {
					continue
				}
				got, err := fam.Pred.MaxClients(sc.Arch, goal)
				if err != nil {
					return nil, err
				}
				e := 100 * math.Abs(got-want) / want
				capErrSum += e
				if e > score.MaxAbsCapErrPct {
					score.MaxAbsCapErrPct = e
				}
				score.CapProbes++
			}
		}
		if score.RTProbes > 0 {
			score.MeanAbsRTErrPct = rtErrSum / float64(score.RTProbes)
		}
		if score.CapProbes > 0 {
			score.MeanAbsCapErrPct = capErrSum / float64(score.CapProbes)
		}
		scores = append(scores, score)
	}
	return scores, nil
}
