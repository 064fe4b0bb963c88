// Package report renders experiment results as aligned plain-text tables
// and simple horizontal bar charts — the textual equivalent of the
// paper's figures, suitable for terminals and EXPERIMENTS.md.
package report

import (
	"fmt"
	"strings"
)

// Table is a simple column-aligned text table.
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Columns))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// Rows returns the number of data rows.
func (t *Table) Rows() int { return len(t.rows) }

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.rows {
		line(row)
	}
	return b.String()
}

// Markdown renders the table as GitHub-flavored markdown.
func (t *Table) Markdown() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "**%s**\n\n", t.Title)
	}
	b.WriteString("| " + strings.Join(t.Columns, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(t.Columns)) + "\n")
	for _, row := range t.rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	return b.String()
}

// Bars renders a labeled horizontal bar chart of non-negative values,
// scaled so the largest bar spans `width` characters.
func Bars(title string, labels []string, values []float64, width int) string {
	if width <= 0 {
		width = 50
	}
	maxV := 0.0
	maxL := 0
	for i, v := range values {
		if v > maxV {
			maxV = v
		}
		if i < len(labels) && len(labels[i]) > maxL {
			maxL = len(labels[i])
		}
	}
	var b strings.Builder
	if title != "" {
		fmt.Fprintf(&b, "%s\n", title)
	}
	for i, v := range values {
		label := ""
		if i < len(labels) {
			label = labels[i]
		}
		n := 0
		if maxV > 0 && v > 0 {
			n = int(v / maxV * float64(width))
		}
		fmt.Fprintf(&b, "%-*s %8.3g |%s\n", maxL, label, v, strings.Repeat("#", n))
	}
	return b.String()
}
