package report

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("Title", "name", "value")
	tb.AddRow("alpha", "1")
	tb.AddRow("beta-long-name", "22222")
	out := tb.String()
	if !strings.Contains(out, "Title") {
		t.Fatal("missing title")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// title + header + separator + 2 rows
	if len(lines) != 5 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	// Columns aligned: every data line has the value column at the same
	// offset.
	if idx1, idx2 := strings.Index(lines[3], "1"), strings.Index(lines[4], "22222"); idx1 != idx2 {
		t.Fatalf("columns misaligned:\n%s", out)
	}
	if tb.Rows() != 2 {
		t.Fatalf("Rows = %d", tb.Rows())
	}
}

func TestTablePadsShortRows(t *testing.T) {
	tb := NewTable("", "a", "b", "c")
	tb.AddRow("x")
	out := tb.String()
	if !strings.Contains(out, "x") {
		t.Fatal("row lost")
	}
}

func TestMarkdown(t *testing.T) {
	tb := NewTable("T", "a", "b")
	tb.AddRow("1", "2")
	md := tb.Markdown()
	if !strings.Contains(md, "| a | b |") || !strings.Contains(md, "| 1 | 2 |") {
		t.Fatalf("markdown wrong:\n%s", md)
	}
	if !strings.Contains(md, "**T**") {
		t.Fatal("missing title")
	}
}

func TestBars(t *testing.T) {
	out := Bars("chart", []string{"a", "bb"}, []float64{1, 2}, 10)
	if !strings.Contains(out, "chart") {
		t.Fatal("missing title")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d", len(lines))
	}
	// The max bar spans the full width, the half bar half of it.
	if strings.Count(lines[2], "#") != 10 {
		t.Fatalf("max bar width wrong: %q", lines[2])
	}
	if strings.Count(lines[1], "#") != 5 {
		t.Fatalf("half bar width wrong: %q", lines[1])
	}
}

func TestBarsZeroAndDefaults(t *testing.T) {
	out := Bars("", []string{"z"}, []float64{0}, 0)
	if strings.Count(out, "#") != 0 {
		t.Fatal("zero value drew a bar")
	}
}
