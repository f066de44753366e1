package bench

import (
	"fmt"
	"io"
	"strings"
)

// Table is one experiment's printable result: the rows/series the paper's
// corresponding table or figure reports.
type Table struct {
	ID     string     `json:"id"`
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	Notes  []string   `json:"notes,omitempty"`
	// Metrics carries registry-derived scalars (e.g. trust-lag quantiles)
	// into the -json artifact alongside the printable rows.
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Errors lists what the experiment found wrong — a lost write, an
	// honest conviction, an arm that could not run. The table still prints
	// and still lands in -json; wedge-bench exits 1 when any is non-empty.
	Errors []string `json:"errors,omitempty"`
}

// failRow records an arm that failed: a row showing the error in the last
// column, and an entry in Errors.
func (t *Table) failRow(arm string, err error) {
	row := make([]string, len(t.Header))
	for i := range row {
		row[i] = "-"
	}
	row[0], row[len(row)-1] = arm, "error: "+err.Error()
	t.Rows = append(t.Rows, row)
	t.Errors = append(t.Errors, arm+": "+err.Error())
}

// Print renders the table in aligned plain text.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintf(w, "\n== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, e := range t.Errors {
		fmt.Fprintf(w, "  ERROR: %s\n", e)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// kops formats operations/second as thousands.
func kops(v float64) string { return fmt.Sprintf("%.2fK", v/1000) }
