package report

import (
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tb := NewTable("Demo", "name", "value")
	tb.AddRow("alpha", "1")
	tb.AddRow("beta", "2.5")
	var sb strings.Builder
	if err := tb.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"== Demo ==", "name", "alpha", "beta", "2.5", "---"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 {
		t.Fatalf("expected 5 lines, got %d:\n%s", len(lines), out)
	}
}

func TestTableRenderRaggedRows(t *testing.T) {
	tb := NewTable("", "a", "b", "c")
	tb.AddRow("only-one")
	var sb strings.Builder
	if err := tb.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "only-one") {
		t.Fatal("short row should render padded")
	}
}

func TestBar(t *testing.T) {
	full := Bar("ckpt", 1.0, 10)
	if !strings.Contains(full, strings.Repeat("█", 10)) {
		t.Fatalf("full bar: %q", full)
	}
	if !strings.Contains(full, "100.0%") {
		t.Fatalf("percentage: %q", full)
	}
	empty := Bar("leak", 0, 10)
	if strings.Contains(empty, "█") {
		t.Fatalf("empty bar should have no blocks: %q", empty)
	}
	clamped := Bar("x", 1.7, 10)
	if !strings.Contains(clamped, "100.0%") {
		t.Fatalf("overfull should clamp: %q", clamped)
	}
	neg := Bar("x", -0.5, 0)
	if !strings.Contains(neg, "0.0%") {
		t.Fatalf("negative should clamp: %q", neg)
	}
}

func TestWaveform(t *testing.T) {
	times := []float64{0, 1, 2, 3, 4}
	values := []float64{1.8, 2.4, 3.0, 1.8, 3.0}
	out := Waveform(times, values, 20, 6)
	if out == "" {
		t.Fatal("empty waveform")
	}
	if !strings.Contains(out, "3.00V") || !strings.Contains(out, "1.80V") {
		t.Fatalf("labels missing:\n%s", out)
	}
	if !strings.Contains(out, "*") {
		t.Fatal("no samples plotted")
	}
	// Degenerate inputs are rejected quietly.
	if Waveform(nil, nil, 20, 6) != "" {
		t.Fatal("empty input should render nothing")
	}
	if Waveform([]float64{1}, []float64{2, 3}, 20, 6) != "" {
		t.Fatal("mismatched lengths should render nothing")
	}
	if Waveform([]float64{1, 1}, []float64{2, 2}, 20, 6) != "" {
		t.Fatal("zero time span should render nothing")
	}
	if Waveform(times, values, 1, 1) != "" {
		t.Fatal("tiny canvas should render nothing")
	}
	// Flat signal should not divide by zero.
	flat := Waveform([]float64{0, 1}, []float64{2, 2}, 10, 4)
	if flat == "" {
		t.Fatal("flat signal should still render")
	}
}
