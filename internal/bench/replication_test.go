package bench

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	"perfpred/internal/stats"
)

// TestFigure2AccuracyStableAcrossSeeds replicates the headline
// experiment across independent seeds and checks the per-method
// accuracies are stable — the reproduction's conclusions do not hinge
// on one lucky random stream.
func TestFigure2AccuracyStableAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("replication across seeds is expensive")
	}
	methods := []string{"historical", "lqn", "hybrid"}
	accs := map[string]*stats.Accumulator{}
	vals := map[string][]float64{}
	for _, m := range methods {
		accs[m] = &stats.Accumulator{}
	}
	for _, seed := range []int64{101, 202, 303} {
		s := NewSuite(seed)
		tab, err := s.figure2()
		if err != nil {
			t.Fatal(err)
		}
		for i, m := range methods {
			acc := byGroup(tab, 3+i, 2)[1] // new-server accuracy
			accs[m].Add(acc)
			vals[m] = append(vals[m], acc)
		}
	}
	for _, m := range methods {
		mean, hw := accs[m].MeanCI(0.95)
		t.Logf("%s new-server accuracy across seeds: %.1f%% ± %.1f", m, mean, hw)
		if mean < 50 {
			t.Fatalf("%s replicated accuracy %.1f%% below floor", m, mean)
		}
		// Seed-to-seed spread stays bounded: conclusions are not
		// artefacts of one stream.
		if lo, hi := slices.Min(vals[m]), slices.Max(vals[m]); hi-lo > 25 {
			t.Fatalf("%s accuracy spread %.1f..%.1f too wide", m, lo, hi)
		}
	}
}

func TestTableJSONOutput(t *testing.T) {
	tab := &Table{ID: "X", Title: "t", Header: []string{"a", "b"}}
	tab.addRow(label("0"), f1(0))
	tab.addNote("n=%d", 1)
	var buf bytes.Buffer
	if err := tab.FprintJSON(&buf); err != nil {
		t.Fatal(err)
	}
	// The label "0" carries no number; the number 0 does.
	var decoded struct {
		ID    string             `json:"id"`
		Rows  [][]map[string]any `json:"rows"`
		Notes []string           `json:"notes"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	lbl, n := decoded.Rows[0][0], decoded.Rows[0][1]
	if decoded.ID != "X" || decoded.Notes[0] != "n=1" || lbl["text"] != "0" || lbl["num"] != false ||
		n["text"] != "0.0" || n["value"] != 0.0 || n["num"] != true || n["host"] != false {
		t.Fatalf("decoded %s", buf.Bytes())
	}
}
