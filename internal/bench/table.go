// Package bench is the experiment harness: it calibrates the three
// prediction methods against the simulated testbed exactly as the
// paper calibrates them against its physical testbed, then regenerates
// every table and figure of the evaluation, and after them the studies
// beyond the paper (studies.go) from the same suite and seed.
// cmd/experiments drives it from the command line.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"

	"perfpred/internal/stats"
)

// Table is one regenerated table or figure: a title, column headers,
// data rows and free-form notes (paper-reported values, caveats).
type Table struct {
	ID     string   `json:"id"`
	Title  string   `json:"title"`
	Header []string `json:"header"`
	Rows   [][]Cell `json:"rows"`
	Notes  []string `json:"notes,omitempty"`
}

// Cell is one table cell: the text it prints and, when Num is set, the
// unrounded finite number behind that text in the unit the text shows
// (an ms cell holds milliseconds, a host timing seconds). Host marks a
// wall-clock timing of the machine running the experiment.
type Cell struct {
	Text  string  `json:"text"`
	Value float64 `json:"value"`
	Num   bool    `json:"num"`
	Host  bool    `json:"host"`
}

// addRow appends a row of cells.
func (t *Table) addRow(cells ...Cell) {
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
	return enc.Encode(t)
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
			widths[i] = max(widths[i], len(c.Text))
		}
	}
	printRow := func(cell func(i int) string) {
		parts := make([]string, len(widths))
		for i := range parts {
			parts[i] = fmt.Sprintf("%-*s", widths[i], cell(i))
		}
		fmt.Fprintln(w, "  "+strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	printRow(func(i int) string { return t.Header[i] })
	printRow(func(i int) string { return strings.Repeat("-", widths[i]) })
	for _, row := range t.Rows {
		printRow(func(i int) string { return row[i].Text })
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// num is a number cell; a non-finite v, which JSON cannot hold, is a label.
func num(text string, v float64) Cell {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return label(text)
	}
	return Cell{Text: text, Value: v, Num: true}
}

func label(s string) Cell { return Cell{Text: s} }
func itoa(n int) Cell     { return num(strconv.Itoa(n), float64(n)) }
func f0(v float64) Cell   { return num(fmt.Sprintf("%.0f", v), v) }
func f1(v float64) Cell   { return num(fmt.Sprintf("%.1f", v), v) }
func f2(v float64) Cell   { return num(fmt.Sprintf("%.2f", v), v) }
func f3(v float64) Cell   { return num(fmt.Sprintf("%.3f", v), v) }
func ms(v float64) Cell   { return num(fmt.Sprintf("%.1fms", v*1000), v*1000) }
func g3(v float64) Cell   { return num(fmt.Sprintf("%.3g", v), v) }

func host(d time.Duration) Cell {
	return Cell{Text: d.String(), Value: d.Seconds(), Num: true, Host: true}
}

// accuracy scores column pred against column act, as the paper scores
// a prediction, over the rows keep selects.
func accuracy(t *Table, pred, act int, keep func([]Cell) bool) float64 {
	var p, a []float64
	for _, r := range t.Rows {
		if keep(r) {
			p, a = append(p, r[pred].Value), append(a, r[act].Value)
		}
	}
	return stats.Accuracy(p, a)
}

func everyRow([]Cell) bool { return true }
