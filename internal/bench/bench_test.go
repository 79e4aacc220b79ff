package bench

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
)

// sharedSuite memoises calibration across tests in this package.
var sharedSuite = NewSuite(17)

// seed17Tables runs sharedSuite's 27 paper tables once for all tests.
var seed17Tables = sync.OnceValues(func() (tables, error) { return sharedSuite.tablesOf(Experiments()...) })

// summaryRows returns EXPERIMENTS.md's reproduction summary, header first.
func summaryRows(t *testing.T) [][]string {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, summary, _ := strings.Cut(string(doc), "### Reproduction summary\n")
	var rows [][]string
	for _, line := range strings.Split(summary, "\n") {
		if strings.HasPrefix(line, "| ") {
			rows = append(rows, strings.Split(strings.TrimSuffix(strings.TrimPrefix(line, "| "), " |"), " | "))
		}
	}
	return rows
}

// The seed-17 claims are EXPERIMENTS.md's summary cell for cell, host
// timings aside; on a mismatch the test prints the table to paste.
func TestReproductionClaims(t *testing.T) {
	tabs, err := seed17Tables()
	if err != nil {
		t.Fatal(err)
	}
	got, doc := evalClaims(tabs), summaryRows(t)
	ok := len(doc) == len(got.Rows)+1 && slices.Equal(doc[0], got.Header)
	want := "| " + strings.Join(got.Header, " | ") + " |\n|" + strings.Repeat("---|", len(got.Header)) + "\n"
	for i, row := range got.Rows {
		texts := make([]string, len(row))
		for j, c := range row {
			texts[j] = c.Text
			ok = ok && len(doc[i+1]) == len(row) && (c.Host || doc[i+1][j] == c.Text)
		}
		want += "| " + strings.Join(texts, " | ") + " |\n"
	}
	if !ok {
		t.Errorf("EXPERIMENTS.md's reproduction summary differs from the claims at seed 17; it should read:\n%s", want)
	}
}

// Seed 37 used to abort the whole data-quantity experiment: with ns =
// 25 truncated samples a lower-equation fit comes out with λL <= 0 and
// relationship 2 rejects it. What too little data does is the
// experiment's subject, so that cell reads "fit failed" (with the
// reason in a note) and the other cells are still scored.
// seed17Table returns one of the shared seed-17 pass's paper tables.
func seed17Table(t *testing.T, name string) *Table {
	t.Helper()
	tabs, err := seed17Tables()
	if err != nil {
		t.Fatal(err)
	}
	return tabs[name]
}

func TestTable1Shape(t *testing.T) {
	tab := seed17Table(t, "table1")
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

// The buy/browse ratio bound is the "LQN calibration via utilisation
// law" claim's.
func TestTable2MatchesGroundTruthRatios(t *testing.T) {
	tab := seed17Table(t, "table2")
	if len(tab.Rows) != 2 {
		t.Fatalf("Table 2 rows = %d, want 2 request types", len(tab.Rows))
	}
}

// The shared m's range is the "m constant across architectures" claim's.
func TestGradientExperiment(t *testing.T) {
	tab := seed17Table(t, "gradient")
	if len(tab.Rows) != 4 { // 3 servers + shared fit
		t.Fatalf("gradient rows = %d", len(tab.Rows))
	}
}

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

// Figure 2's claims (the 45 % floor, hybrid ≈ LQN, historical > LQN) read
// as EXPERIMENTS.md says; `make race` runs this with its runs fanned out.
func TestFigure2ShapeHolds(t *testing.T) {
	tabs, err := sharedSuite.tablesOf("gradient", "figure2")
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range summaryRows(t)[1:] {
		if i < len(claims) && claims[i].paper == "§6" {
			if margin, holds := claims[i].check(tabs); verdicts[holds] != row[len(row)-1] {
				t.Errorf("%s: margin %s reads %s, EXPERIMENTS.md says %s", row[0], margin.Text, verdicts[holds], row[len(row)-1])
			}
		}
	}
}

// The spacing bound is the "Figure 3 spacing trends" claim's.
func TestFigure3LowerImprovesWithSpacing(t *testing.T) {
	tab := seed17Table(t, "figure3")
	if len(tab.Rows) < 5 {
		t.Fatalf("figure 3 rows = %d", len(tab.Rows))
	}
}

func TestFigure4Heterogeneous(t *testing.T) {
	tab := seed17Table(t, "figure4")
	if len(tab.Rows) != 12 { // 3 buy mixes × 4 populations
		t.Fatalf("figure 4 rows = %d", len(tab.Rows))
	}
}

func TestPercentilesExperiment(t *testing.T) {
	tab := seed17Table(t, "percentiles")
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

// Slack 0's failures are the "Figures 5–8 slack tuning shapes" claim's.
func TestRMStudyFigures(t *testing.T) {
	tab := seed17Table(t, "figure5-6")
	if len(tab.Rows) != 22 {
		t.Fatalf("figure 5-6 rows = %d", len(tab.Rows))
	}
	f8 := seed17Table(t, "figure8")
	if len(f8.Rows) < 8 {
		t.Fatalf("figure 8 rows = %d", len(f8.Rows))
	}
}

// Uniform's failures at slack = y are the "Uniform-error slack = y
// compensation" claim's.
func TestUniformAndDelayAndSearch(t *testing.T) {
	delay := seed17Table(t, "delay")
	if len(delay.Rows) != 3 {
		t.Fatalf("delay rows = %d", len(delay.Rows))
	}
	search := seed17Table(t, "search")
	if len(search.Rows) != 9 {
		t.Fatalf("search rows = %d", len(search.Rows))
	}
}

func TestAblations(t *testing.T) {
	for _, name := range []string{"ablation-transition", "ablation-mva", "ablation-convergence", "ablation-lastserver"} {
		if tab := seed17Table(t, name); len(tab.Rows) == 0 {
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
// their titles and line counts are compared. TestStudies runs the rest.
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
	tabs, err := seed17Tables()
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range names {
		tab := tabs[name]
		checkShape(t, tab)
		var buf bytes.Buffer
		tab.Fprint(&buf)
		got, want := buf.String(), sections[i]
		if slices.ContainsFunc(tab.Rows, func(row []Cell) bool {
			return slices.ContainsFunc(row, func(c Cell) bool { return c.Host })
		}) {
			hostTimed = append(hostTimed, name)
			got = fmt.Sprintf("%s (%d lines)", strings.SplitN(got, "\n", 2)[0], strings.Count(got, "\n"))
			want = fmt.Sprintf("%s (%d lines)", strings.SplitN(want, "\n", 2)[0], strings.Count(want, "\n"))
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
