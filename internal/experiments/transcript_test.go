package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// sectionMarker opens each generator's section of an All transcript.
const sectionMarker = "\n########## "

// splitSections cuts an All transcript into its generator sections,
// keyed by generator ID, in order.
func splitSections(t *testing.T, transcript string) (ids []string, sections map[string]string) {
	t.Helper()
	sections = map[string]string{}
	parts := strings.Split(transcript, sectionMarker)
	if parts[0] != "" {
		t.Fatalf("transcript does not open with a section marker: %q", parts[0])
	}
	for _, p := range parts[1:] {
		id, _, _ := strings.Cut(p, " ")
		ids = append(ids, id)
		sections[id] = p
	}
	return ids, sections
}

// firstDiff returns the 1-based number and both versions of the first
// line where a and b differ.
func firstDiff(a, b string) (n int, la, lb string) {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) || i < len(bl); i++ {
		la, lb = "<end of section>", "<end of section>"
		if i < len(al) {
			la = al[i]
		}
		if i < len(bl) {
			lb = bl[i]
		}
		if la != lb {
			return i + 1, la, lb
		}
	}
	return 0, "", ""
}

// TestPaperTranscript pins the committed paper transcript: All at the
// `make experiments` settings (budget 400, Pareto scan 600, seed 1)
// must reproduce experiments_full.txt byte for byte, serially and at
// the default worker count. A mismatch names the generator and the
// first line that differs.
func TestPaperTranscript(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "experiments_full.txt"))
	if err != nil {
		t.Fatal(err)
	}
	wantIDs, want := splitSections(t, string(raw))
	for _, tc := range []struct {
		name    string
		workers int
	}{{"workers-1", 1}, {"workers-default", 0}} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			o := Options{Budget: 400, ParetoSamples: 600, Seed: 1, Workers: tc.workers}
			if err := All(&buf, o); err != nil {
				t.Fatal(err)
			}
			gotIDs, got := splitSections(t, buf.String())
			if strings.Join(gotIDs, ",") != strings.Join(wantIDs, ",") {
				t.Fatalf("generators %v, transcript has %v", gotIDs, wantIDs)
			}
			for _, id := range wantIDs {
				if got[id] == want[id] {
					continue
				}
				n, g, w := firstDiff(got[id], want[id])
				t.Errorf("%s: line %d of its section differs from experiments_full.txt\n got %q\nwant %q", id, n, g, w)
			}
		})
	}
}
