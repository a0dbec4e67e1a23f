// Package experiments regenerates every table and figure of the paper's
// evaluation (§4, Appendices B and C) on the simulated substrate. Each
// experiment returns a Table that prints in the same shape as the paper's
// result, with a note recording what the paper reported.
package experiments

import (
	"fmt"
	"strings"
	"time"
)

// Table is a printable experiment result.
type Table struct {
	ID     string // e.g. "fig9"
	Title  string
	Paper  string // what the paper reports, for EXPERIMENTS.md
	Header []string
	Rows   [][]string
	Notes  []string
}

// Every table carries one of these notes so a modelled figure is never read
// as a measurement: "wall" columns were timed on this machine, "modelled"
// columns come from llmsim's hardware profile through internal/engine.
const (
	clockWall     = "clock: wall"
	clockModelled = "clock: modelled — TPOT/TTFT are llmsim GPU, prefill and sampling charges plus wall-clock grammar CPU where the mode leaves it on the critical path; a what-if, not a measurement of a serving stack (bench/ measures that)"
	clockNone     = "clock: none"
)

// Add appends a row.
func (t *Table) Add(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Note appends a free-text note line.
func (t *Table) Note(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", t.ID, t.Title)
	if t.Paper != "" {
		fmt.Fprintf(&sb, "paper: %s\n", t.Paper)
	}
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
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// Markdown renders the table as GitHub-flavored markdown (for EXPERIMENTS.md).
func (t *Table) Markdown() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "### %s: %s\n\n", t.ID, t.Title)
	if t.Paper != "" {
		fmt.Fprintf(&sb, "*Paper:* %s\n\n", t.Paper)
	}
	sb.WriteString("| " + strings.Join(t.Header, " | ") + " |\n")
	sb.WriteString("|" + strings.Repeat(" --- |", len(t.Header)) + "\n")
	for _, row := range t.Rows {
		sb.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "\n*Note:* %s\n", n)
	}
	sb.WriteByte('\n')
	return sb.String()
}

// fmtUS formats a duration as microseconds with sensible precision.
func fmtUS(d time.Duration) string {
	us := float64(d.Nanoseconds()) / 1e3
	switch {
	case us >= 100000:
		return fmt.Sprintf("%.0f", us)
	case us >= 100:
		return fmt.Sprintf("%.1f", us)
	default:
		return fmt.Sprintf("%.2f", us)
	}
}

// fmtMS formats a duration as milliseconds.
func fmtMS(d time.Duration) string {
	ms := float64(d.Nanoseconds()) / 1e6
	switch {
	case ms >= 100:
		return fmt.Sprintf("%.0f", ms)
	case ms >= 10:
		return fmt.Sprintf("%.1f", ms)
	default:
		return fmt.Sprintf("%.2f", ms)
	}
}
