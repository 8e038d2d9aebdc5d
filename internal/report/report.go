// Package report renders experiment output: aligned text tables, ASCII
// bar charts and strip charts. The experiment harness (cmd/experiments) uses
// it to print the rows and series behind every figure and table of the
// paper's evaluation.
package report

import (
	"fmt"
	"io"
	"strings"
)

// Table is a titled grid of cells.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; short rows are padded, long rows are an error
// surfaced at render time (kept simple for harness code).
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	cols := len(t.Headers)
	for _, r := range t.Rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	widths := make([]int, cols)
	measure := func(row []string) {
		for i, c := range row {
			if n := len([]rune(c)); n > widths[i] {
				widths[i] = n
			}
		}
	}
	measure(t.Headers)
	for _, r := range t.Rows {
		measure(r)
	}

	var b strings.Builder
	if t.Title != "" {
		b.WriteString("== " + t.Title + " ==\n")
	}
	writeRow := func(row []string) {
		for i := 0; i < cols; i++ {
			cell := ""
			if i < len(row) {
				cell = row[i]
			}
			b.WriteString(cell)
			if i < cols-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-len([]rune(cell))+2))
			}
		}
		b.WriteString("\n")
	}
	if len(t.Headers) > 0 {
		writeRow(t.Headers)
		total := 0
		for _, w := range widths {
			total += w + 2
		}
		b.WriteString(strings.Repeat("-", total-2) + "\n")
	}
	for _, r := range t.Rows {
		writeRow(r)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Bar renders a labeled ASCII bar of width proportional to frac in
// [0,1], e.g. for the Figure 8/9 energy breakdowns.
func Bar(label string, frac float64, width int) string {
	if width <= 0 {
		width = 40
	}
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	n := int(frac*float64(width) + 0.5)
	return fmt.Sprintf("%-14s |%s%s| %5.1f%%", label,
		strings.Repeat("█", n), strings.Repeat(" ", width-n), frac*100)
}

// Waveform renders an ASCII strip chart of (t, v) samples: rows are
// voltage bands from vMax at the top to vMin at the bottom, columns are
// time buckets. Threshold voltages can be overlaid by the caller by
// choosing vMin/vMax accordingly.
func Waveform(times, values []float64, width, height int) string {
	if len(times) == 0 || len(times) != len(values) || width < 2 || height < 2 {
		return ""
	}
	tMin, tMax := times[0], times[len(times)-1]
	if tMax <= tMin {
		return ""
	}
	vMin, vMax := values[0], values[0]
	for _, v := range values {
		if v < vMin {
			vMin = v
		}
		if v > vMax {
			vMax = v
		}
	}
	if vMax <= vMin {
		vMax = vMin + 1
	}
	// Bucket the samples by column, keeping the last value per column.
	cols := make([]float64, width)
	seen := make([]bool, width)
	for i, tm := range times {
		c := int((tm - tMin) / (tMax - tMin) * float64(width-1))
		cols[c] = values[i]
		seen[c] = true
	}
	// Forward-fill empty columns.
	last := values[0]
	for c := range cols {
		if seen[c] {
			last = cols[c]
		} else {
			cols[c] = last
		}
	}

	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for c, v := range cols {
		r := int((vMax - v) / (vMax - vMin) * float64(height-1))
		grid[r][c] = '*'
	}
	var b strings.Builder
	for r, row := range grid {
		label := ""
		switch r {
		case 0:
			label = fmt.Sprintf("%6.2fV ", vMax)
		case height - 1:
			label = fmt.Sprintf("%6.2fV ", vMin)
		default:
			label = strings.Repeat(" ", 8)
		}
		b.WriteString(label + string(row) + "\n")
	}
	b.WriteString(strings.Repeat(" ", 8) + fmt.Sprintf("t: %.3gs .. %.3gs", tMin, tMax))
	return b.String()
}
