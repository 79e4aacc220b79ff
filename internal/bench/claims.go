package bench

import (
	"fmt"
	"math"
	"slices"

	"perfpred/internal/hist"
)

type tables = map[string]*Table // a pass's tables by experiment name

// A claim is one row of the reproduction summary: the paper's claim, where
// the paper makes it, the bound held to, naming its source, and check, a
// pure function of the paper tables returning the margin (the measured
// quantity the bound tests, its value the text's first number) and whether
// the bound holds. Checks index cells by position; the goldens pin shapes.
type claim struct {
	text, paper, bound string
	check              func(tabs tables) (margin Cell, holds bool)
}

var claims = []claim{
	{"Two-regime RT law, lower-exp/upper-linear equations", "§4.1", "historical accuracy on established servers off the 0.66–1.10 N* knee ≥ 89.1 % (paper, figure 2)",
		func(tabs tables) (Cell, bool) {
			frac := nStarFrac(tabs)
			offKnee := func(r []Cell) bool { return frac(r) < hist.TransitionLow || frac(r) > hist.TransitionHigh }
			acc := accuracy(tabs["figure2"], 3, 2, func(r []Cell) bool { return !onNew(r) && offKnee(r) })
			return margin(acc, "%.1f %%", acc), acc >= 89.1
		}},
	{"m constant across architectures", "§4.1", "every server's m within 5 % of the shared m (ROADMAP 18); shared m in [0.12, 0.15] (bench test)",
		func(tabs tables) (Cell, bool) {
			rows := tabs["gradient"].Rows // three servers, then the shared fit
			m, worst := rows[3][1].Value, 0.0
			for _, r := range rows[:3] {
				worst = max(worst, 100*math.Abs(r[1].Value/m-1))
			}
			return margin(worst, "%.1f %%; m %.3f", worst, m), worst < 5 && m >= 0.12 && m <= 0.15
		}},
	{"2 data points + ~50 samples suffice", "§4.2", "new-server accuracy at 2 points, 50 samples within 5 points of 2 points, all samples (round)",
		func(tabs tables) (Cell, bool) {
			rows := tabs["data-quantity"].Rows // rows 1 and 3: 2 points at 50 and at all samples
			few, all := rows[1][2].Value, rows[3][2].Value
			return margin(few, "%.1f vs %.1f %%", few, all), few >= all-5
		}},
	{"LQN calibration via utilisation law", "§5", "app demand within 2 % of ground truth per type (the summary's ≤ 2 %); buy/browse in [1.7, 2.2] (bench test)",
		func(tabs tables) (Cell, bool) {
			rows := tabs["table2"].Rows // browse, buy
			browse, buy := 100*(rows[0][1].Value/rows[0][4].Value-1), 100*(rows[1][1].Value/rows[1][4].Value-1)
			ratio := rows[1][1].Value / rows[0][1].Value
			return margin(browse, "%+.2f %% / %+.2f %%; ratio %.2f", browse, buy, ratio),
				max(math.Abs(browse), math.Abs(buy)) <= 2 && ratio >= 1.7 && ratio <= 2.2
		}},
	{"All three methods accurate on new servers", "§6", "every method ≥ 45 % on established and new servers (bench test)",
		func(tabs tables) (Cell, bool) {
			worst := slices.Min(slices.Concat(methodAccuracies(tabs["figure2"])...))
			return margin(worst, "min %.1f %%", worst), worst >= 45
		}},
	{"Historical > LQN accuracy", "§6", "historical accuracy above LQN's on established and new servers (paper)",
		func(tabs tables) (Cell, bool) {
			acc := methodAccuracies(tabs["figure2"])
			h, l := acc[0], acc[1] // historical, LQN
			return margin(h[0], "%.1f vs %.1f; %.1f vs %.1f %%", h[0], l[0], h[1], l[1]), h[0] > l[0] && h[1] > l[1]
		}},
	{"Hybrid ≈ its generating LQN model", "§6", "at and above N*, hybrid mean absolute RT error ≤ 2× LQN's (ROADMAP 18)",
		func(tabs tables) (Cell, bool) {
			frac, hyb, lq := nStarFrac(tabs), 0.0, 0.0
			for _, r := range tabs["figure2"].Rows {
				if frac(r) >= 1 {
					hyb, lq = hyb+math.Abs(r[5].Value/r[2].Value-1), lq+math.Abs(r[4].Value/r[2].Value-1)
				}
			}
			return margin(hyb/lq, "%.2f×", hyb/lq), hyb <= 2*lq
		}},
	{"Figure 3 spacing trends", "Fig. 3", "lower-eq accuracy at the widest spacing ≥ the narrowest's − 2 points (bench test)",
		func(tabs tables) (Cell, bool) {
			rows := tabs["figure3"].Rows
			narrow, wide := rows[0][1].Value, rows[len(rows)-1][1].Value
			return margin(narrow, "%.1f → %.1f %%", narrow, wide), wide >= narrow-2
		}},
	{"Relationship 3 mixed workloads", "Fig. 4", "accuracy across buy mixes ≥ 45 %, figure 2's floor (bench test)",
		func(tabs tables) (Cell, bool) {
			acc := accuracy(tabs["figure4"], 3, 2, everyRow)
			return margin(acc, "%.1f %%", acc), acc >= 45
		}},
	{"§7.1 percentile extrapolation ≤ ~4.6% loss", "§7.1", "every method's p90 accuracy ≥ its mean-RT accuracy − 4.6 points, both server groups (paper)",
		func(tabs tables) (Cell, bool) {
			mean, p90, worst := methodAccuracies(tabs["figure2"]), methodAccuracies(tabs["percentiles"]), math.Inf(-1)
			for i := range mean {
				worst = max(worst, mean[i][0]-p90[i][0], mean[i][1]-p90[i][1])
			}
			return margin(worst, "worst loss %.1f points", worst), worst <= 4.6
		}},
	{"§7.2 cache: historical works, LQN fixed point doesn't", "§7.2", "historical miss rate within 0.05 of measured at every size, LQN fixed point beyond it at one (round)",
		func(tabs tables) (Cell, bool) {
			var h, l float64
			for _, r := range tabs["cache"].Rows {
				h, l = max(h, math.Abs(r[2].Value-r[1].Value)), max(l, math.Abs(r[3].Value-r[1].Value))
			}
			return margin(h, "%.2f vs %.2f", h, l), h <= 0.05 && l > 0.05
		}},
	{"§8.2 capacity search vs closed-form inversion", "§8.2", "every layered capacity query takes > 1 solver evaluation (paper)",
		func(tabs tables) (Cell, bool) {
			evals := math.Inf(1)
			for _, r := range tabs["search"].Rows {
				evals = min(evals, r[3].Value)
			}
			return margin(evals, "min %.0f", evals), evals > 1
		}},
	{"§8.5 delay ordering (historical, hybrid-after-startup ≪ LQN)", "§8.5", "LQN per-prediction ≥ 10× both closed-form methods; only hybrid has a start-up (round)",
		func(tabs tables) (Cell, bool) {
			rows := tabs["delay"].Rows // historical, layered queuing, hybrid
			ratio := rows[1][1].Value / max(rows[0][1].Value, rows[2][1].Value)
			return Cell{Text: fmt.Sprintf("%.0f×", ratio), Value: ratio, Num: true, Host: true},
				ratio >= 10 && !rows[0][2].Num && !rows[1][2].Num && rows[2][2].Num
		}},
	{"Figures 5–8 slack tuning shapes", "Figs. 5–8", "slack 1.1: 0 % failures at every load below 100 % usage; slack 0: 100 % failures (paper)",
		func(tabs tables) (Cell, bool) {
			fail, f7 := 0.0, tabs["figure7"].Rows
			for _, r := range tabs["figure5-6"].Rows {
				if r[2].Value < 100 {
					fail = max(fail, r[1].Value)
				}
			}
			zero := f7[len(f7)-1][1].Value
			return margin(fail, "%.1f %%; %.1f %%", fail, zero), fail == 0 && zero >= 99.9
		}},
	{"Uniform-error slack = y compensation", "§9.1", "0 % max failures at slack = y for every y, at one usage (paper)",
		func(tabs tables) (Cell, bool) {
			rows := tabs["uniform"].Rows
			fail, usage, one := 0.0, rows[0][2].Value, true
			for _, r := range rows {
				fail, one = max(fail, r[1].Value), one && r[2].Value == usage
			}
			return margin(fail, "%.2f %%; usage %.1f %%", fail, usage), fail == 0 && one
		}},
	{"§8.1 implicit bottleneck: historical absorbs, LQN needs profiling", "§8.1", "historical and profiled LQN each more accurate than naive LQN (paper)",
		func(tabs tables) (Cell, bool) {
			b := tabs["bottleneck"]
			h, naive, prof := accuracy(b, 2, 1, everyRow), accuracy(b, 3, 1, everyRow), accuracy(b, 4, 1, everyRow)
			return margin(h, "%.1f / %.1f vs %.1f %%", h, prof, naive), h > naive && prof > naive
		}},
}

// evalClaims renders the claims over the paper tables.
func evalClaims(tabs tables) *Table {
	t := &Table{
		ID:     "claims",
		Title:  "The paper's claims, each held to a stated bound over this run's tables",
		Header: []string{"Claim", "Paper", "Bound", "Margin", "Verdict"},
	}
	for _, c := range claims {
		margin, holds := c.check(tabs)
		t.addRow(label(c.text), label(c.paper), label(c.bound), margin, label(verdicts[holds]))
	}
	return t
}

var verdicts = map[bool]string{true: "reproduced", false: "not reproduced"}

func margin(v float64, format string, args ...any) Cell { return num(fmt.Sprintf(format, args...), v) }

// reproductionClaims runs the paper's experiments on the suite and
// evaluates the claims over their tables.
func (s *Suite) reproductionClaims() (*Table, error) {
	tabs, err := s.tablesOf(Experiments()...)
	if err != nil {
		return nil, err
	}
	return evalClaims(tabs), nil
}

// tablesOf runs the named experiments in order.
func (s *Suite) tablesOf(names ...string) (tables, error) {
	tabs := tables{}
	for _, name := range names {
		t, err := s.Run(name)
		if err != nil {
			return nil, fmt.Errorf("bench: experiment %s: %w", name, err)
		}
		tabs[name] = t
	}
	return tabs, nil
}

// methodAccuracies scores figure 2's method columns 3–5 by server group.
func methodAccuracies(t *Table) [][]float64 {
	return [][]float64{byGroup(t, 3, 2), byGroup(t, 4, 2), byGroup(t, 5, 2)}
}

// nStarFrac is a figure-2 row's population over its server's gradient N*.
func nStarFrac(tabs tables) func([]Cell) float64 {
	nStar := map[string]float64{}
	for _, r := range tabs["gradient"].Rows {
		nStar[r[0].Text] = r[3].Value
	}
	return func(r []Cell) float64 { return r[1].Value / nStar[r[0].Text] }
}
