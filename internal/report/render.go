// Package report renders every table and figure of the paper as text: the
// same rows and series the paper plots, printable by the benchmark harness
// and cmd/astrareport. Rendering is deliberately plain (fixed-width tables
// and unicode bar charts) so outputs diff cleanly across runs.
package report

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Table accumulates a fixed-width text table.
type Table struct {
	title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with a title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// AddRow appends a row; cells beyond the header count are dropped, missing
// cells are blank.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.headers))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	if t.title != "" {
		sb.WriteString(t.title + "\n")
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	line(t.headers)
	seps := make([]string, len(t.headers))
	for i, w := range widths {
		seps[i] = strings.Repeat("-", w)
	}
	line(seps)
	for _, row := range t.rows {
		line(row)
	}
	return sb.String()
}

// barWidth is the maximum bar length in characters.
const barWidth = 40

// Bars renders a labeled horizontal bar chart scaled to the maximum value.
func Bars(title string, labels []string, values []float64) string {
	var sb strings.Builder
	if title != "" {
		sb.WriteString(title + "\n")
	}
	maxVal := 0.0
	maxLabel := 0
	for i, v := range values {
		if v > maxVal {
			maxVal = v
		}
		if len(labels[i]) > maxLabel {
			maxLabel = len(labels[i])
		}
	}
	for i, v := range values {
		n := 0
		if maxVal > 0 {
			n = int(math.Round(v / maxVal * barWidth))
		}
		fmt.Fprintf(&sb, "%-*s |%-*s %s\n", maxLabel, labels[i], barWidth, strings.Repeat("█", n), FormatCount(v))
	}
	return sb.String()
}

// FormatCount renders a count with thousands separators for readability.
func FormatCount(v float64) string {
	if v != math.Trunc(v) || math.Abs(v) >= 1e15 {
		return fmt.Sprintf("%.3g", v)
	}
	neg := v < 0
	s := fmt.Sprintf("%d", int64(math.Abs(v)))
	var parts []string
	for len(s) > 3 {
		parts = append([]string{s[len(s)-3:]}, parts...)
		s = s[:len(s)-3]
	}
	parts = append([]string{s}, parts...)
	out := strings.Join(parts, ",")
	if neg {
		out = "-" + out
	}
	return out
}

// FormatPct renders a fraction as a percentage.
func FormatPct(f float64) string { return fmt.Sprintf("%.1f%%", f*100) }

// SortedKeys returns the sorted keys of an integer-keyed map, for stable
// series rendering.
func SortedKeys[K ~int | ~int64, V any](m map[K]V) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}
