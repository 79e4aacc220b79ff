package bench

import (
	"bytes"
	"io"
	"os"
	"slices"
	"strings"
	"testing"
)

// sharedSuite memoises calibration across tests in this package.
var sharedSuite = NewSuite(17)

func TestTable1Shape(t *testing.T) {
	tab, err := sharedSuite.table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("Table 1 rows = %d, want 3 servers", len(tab.Rows))
	}
	var buf bytes.Buffer
	tab.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"AppServS", "AppServF", "AppServVF", "cL"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table 1 output missing %q:\n%s", want, out)
		}
	}
}

func TestTable2MatchesGroundTruthRatios(t *testing.T) {
	tab, err := sharedSuite.table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("Table 2 rows = %d, want 2 request types", len(tab.Rows))
	}
	demands, err := sharedSuite.lqnDemands()
	if err != nil {
		t.Fatal(err)
	}
	browse := demands["browse"]
	buy := demands["buy"]
	ratio := buy.AppServerTime / browse.AppServerTime
	// Table 2's buy/browse demand ratio 8.761/4.505 ≈ 1.94 must be
	// recovered by calibration within ~10%.
	if ratio < 1.7 || ratio > 2.2 {
		t.Fatalf("buy/browse calibrated ratio = %v, want ≈1.94", ratio)
	}
}

func TestGradientExperiment(t *testing.T) {
	tab, err := sharedSuite.throughputGradient()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 { // 3 servers + shared fit
		t.Fatalf("gradient rows = %d", len(tab.Rows))
	}
	m, err := sharedSuite.gradient()
	if err != nil {
		t.Fatal(err)
	}
	if m < 0.12 || m > 0.15 {
		t.Fatalf("shared gradient = %v, want ≈0.14", m)
	}
}

// Seed 37 used to abort the whole data-quantity experiment: with ns =
// 25 truncated samples a lower-equation fit comes out with λL <= 0 and
// relationship 2 rejects it. What too little data does is the
// experiment's subject, so that cell reads "fit failed" (with the
// reason in a note) and the other cells are still scored.
func TestDataQuantitySurvivesFailedFit(t *testing.T) {
	if testing.Short() {
		t.Skip("calibrates a fresh suite")
	}
	tab, err := NewSuite(37).dataQuantity()
	if err != nil {
		t.Fatalf("seed 37: %v", err)
	}
	if len(tab.Rows) != 12 {
		t.Fatalf("rows = %d, want all 12 cells", len(tab.Rows))
	}
	failed := 0
	for _, row := range tab.Rows {
		if row[2].Text == "fit failed" {
			failed++
			if row[1].Text != "25" {
				t.Errorf("fit failed at ns=%s; only the ns=25 fits are known to break at this seed", row[1].Text)
			}
		}
	}
	if failed == 0 {
		t.Fatal("no cell failed: seed 37 no longer exercises the failed-fit path")
	}
	if len(tab.Notes) != failed+1 {
		t.Fatalf("%d notes for %d failed cells, want one reason each plus the paper note", len(tab.Notes), failed)
	}
}

func TestFigure2ShapeHolds(t *testing.T) {
	_, acc, err := sharedSuite.figure2()
	if err != nil {
		t.Fatal(err)
	}
	accs := map[string][2]float64{}
	for _, method := range []string{"historical", "lqn", "hybrid"} {
		accs[method] = acc.of(method)
	}
	for method, pair := range accs {
		for i, group := range []string{"established", "new"} {
			if pair[i] < 45 {
				t.Fatalf("%s accuracy on %s servers = %.1f%%, below floor", method, group, pair[i])
			}
		}
	}
	// The paper's qualitative finding that carries over directly: the
	// hybrid method's accuracy tracks the layered model it is built
	// from, not the measured data (§6). On this testbed the layered
	// model is structurally exact (the testbed IS a queueing network),
	// so LQN leads where the paper's physical testbed had it trail —
	// see EXPERIMENTS.md. The hybrid stays within the LQN's accuracy.
	if accs["hybrid"][0] > accs["lqn"][0]+10 {
		t.Fatalf("hybrid (%.1f%%) should not beat its generating LQN model (%.1f%%) by a wide margin",
			accs["hybrid"][0], accs["lqn"][0])
	}
}

func TestFigure3LowerImprovesWithSpacing(t *testing.T) {
	tab, err := sharedSuite.figure3()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 5 {
		t.Fatalf("figure 3 rows = %d", len(tab.Rows))
	}
	// The lower-equation accuracy at the widest spacing should beat
	// the narrowest — the paper's roughly-linear improvement.
	a, b := tab.Rows[0][1].Value, tab.Rows[len(tab.Rows)-1][1].Value
	if b < a-2 {
		t.Fatalf("lower-equation accuracy fell with spacing: %v -> %v", a, b)
	}
}

func TestFigure4Heterogeneous(t *testing.T) {
	tab, err := sharedSuite.figure4()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 12 { // 3 buy mixes × 4 populations
		t.Fatalf("figure 4 rows = %d", len(tab.Rows))
	}
}

func TestPercentilesExperiment(t *testing.T) {
	tab, err := sharedSuite.percentiles()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 24 { // 3 servers × 8 populations
		t.Fatalf("percentile rows = %d", len(tab.Rows))
	}
	b, err := sharedSuite.LaplaceScale()
	if err != nil {
		t.Fatal(err)
	}
	if b <= 0 {
		t.Fatalf("laplace scale = %v", b)
	}
}

func TestRMStudyFigures(t *testing.T) {
	tab, err := sharedSuite.figure5and6()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 22 {
		t.Fatalf("figure 5-6 rows = %d", len(tab.Rows))
	}
	f7, err := sharedSuite.figure7()
	if err != nil {
		t.Fatal(err)
	}
	// Failures at slack 0 reach 100% (no clients allocated).
	if fail := f7.Rows[len(f7.Rows)-1][1].Value; fail < 99.9 {
		t.Fatalf("slack-0 average failures = %v, want 100", fail)
	}
	f8, err := sharedSuite.figure8()
	if err != nil {
		t.Fatal(err)
	}
	if len(f8.Rows) < 8 {
		t.Fatalf("figure 8 rows = %d", len(f8.Rows))
	}
}

func TestUniformAndDelayAndSearch(t *testing.T) {
	tab, err := sharedSuite.uniformInaccuracy()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		if maxFail := row[1].Value; maxFail > 0 {
			t.Fatalf("slack=y left %v%% failures for y=%s", maxFail, row[0].Text)
		}
	}
	delay, err := sharedSuite.predictionDelay()
	if err != nil {
		t.Fatal(err)
	}
	if len(delay.Rows) != 3 {
		t.Fatalf("delay rows = %d", len(delay.Rows))
	}
	search, err := sharedSuite.lqnMaxClientsCost()
	if err != nil {
		t.Fatal(err)
	}
	if len(search.Rows) != 9 {
		t.Fatalf("search rows = %d", len(search.Rows))
	}
}

func TestAblations(t *testing.T) {
	for _, name := range []string{"ablation-transition", "ablation-mva", "ablation-convergence", "ablation-lastserver"} {
		tab, err := sharedSuite.Run(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(tab.Rows) == 0 {
			t.Fatalf("%s produced no rows", name)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := sharedSuite.Run("nope"); err == nil {
		t.Fatal("unknown experiment should fail")
	}
}

// Experiments() is the reference output's 27 sections in order (the
// benchmark's paper_repro splits that file by this list), every listed
// name resolves, no name hides another and every table is well formed.
// A table without host timings renders its section byte for byte. The
// tables with host timings are exactly the two whose host columns
// benchmark/paper.go leaves out of paper_repro's comparison; here only
// their titles are compared. TestStudies runs the rest.
func TestExperimentsListMatchesRun(t *testing.T) {
	golden, err := os.ReadFile("../../experiments_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	var sections []string
	for _, line := range strings.SplitAfter(string(golden), "\n") {
		if strings.HasPrefix(line, "== ") {
			sections = append(sections, "")
		}
		if len(sections) > 0 {
			sections[len(sections)-1] += line
		}
	}
	names := Experiments()
	if len(names) != 27 || len(sections) != len(names) {
		t.Fatalf("%d experiments listed, %d sections in experiments_output.txt, want 27 of each", len(names), len(sections))
	}
	var hostTimed []string
	for i, name := range names {
		// Heavy experiments already ran above and are memoised, so
		// this is cheap.
		tab, err := sharedSuite.Run(name)
		if err != nil {
			t.Fatalf("experiment %s failed: %v", name, err)
		}
		checkShape(t, tab)
		var buf bytes.Buffer
		tab.Fprint(&buf)
		got, want := buf.String(), sections[i]
		if slices.ContainsFunc(tab.Rows, func(row []Cell) bool {
			return slices.ContainsFunc(row, func(c Cell) bool { return c.Host })
		}) {
			hostTimed = append(hostTimed, name)
			got, _, _ = strings.Cut(got, "\n")
			want, _, _ = strings.Cut(want, "\n")
		}
		if got != want {
			t.Errorf("experiment %d (%s) differs from section %d of experiments_output.txt:\n--- got\n%s\n--- want\n%s", i, name, i, got, want)
		}
	}
	if want := []string{"delay", "ablation-mva"}; !slices.Equal(hostTimed, want) {
		t.Errorf("tables with host timings are %v, want %v", hostTimed, want)
	}
	listed := map[string]bool{}
	for _, e := range experiments {
		if listed[e.name] {
			t.Errorf("experiment %q listed twice", e.name)
		}
		listed[e.name] = true
	}
}

// checkShape fails unless the table has rows, each row has one cell per
// header and no empty cell, and the table encodes as JSON.
func checkShape(t *testing.T, tab *Table) {
	t.Helper()
	if len(tab.Rows) == 0 {
		t.Fatalf("%s produced no rows", tab.ID)
	}
	for i, row := range tab.Rows {
		if len(row) != len(tab.Header) || slices.ContainsFunc(row, func(c Cell) bool { return c.Text == "" }) {
			t.Fatalf("%s row %d has an empty cell or %d cells under %d headers", tab.ID, i, len(row), len(tab.Header))
		}
	}
	if err := tab.FprintJSON(io.Discard); err != nil {
		t.Fatalf("%s does not encode as JSON: %v", tab.ID, err)
	}
}
