// Package bench is the experiment harness: it calibrates the three
// prediction methods against the simulated testbed exactly as the
// paper calibrates them against its physical testbed, then regenerates
// every table and figure of the evaluation, and after them the studies
// beyond the paper (studies.go) from the same suite and seed.
// cmd/experiments drives it from the command line and bench_test.go
// wraps each experiment in a testing.B benchmark.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Table is one regenerated table or figure: a title, column headers,
// data rows and free-form notes (paper-reported values, caveats).
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// addRow appends a row of already-formatted cells.
func (t *Table) addRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// addNote appends a note line.
func (t *Table) addNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// FprintJSON renders the table as a JSON document, for scripted
// consumers of cmd/experiments.
func (t *Table) FprintJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		ID     string     `json:"id"`
		Title  string     `json:"title"`
		Header []string   `json:"header"`
		Rows   [][]string `json:"rows"`
		Notes  []string   `json:"notes,omitempty"`
	}{t.ID, t.Title, t.Header, t.Rows, t.Notes})
}

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	printRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	printRow(sep)
	for _, row := range t.Rows {
		printRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func ms(v float64) string { return fmt.Sprintf("%.1fms", v*1000) }
func g3(v float64) string { return fmt.Sprintf("%.3g", v) }
