package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"chrysalis/internal/core"
	"chrysalis/internal/explore"
)

// noFeasible is the golden value of a design the search must report as
// explore.ErrNoFeasibleDesign.
const noFeasible = "no-feasible-design"

// goldens maps an input key to the digest of its expected output.
type goldens map[string]string

// goldenFile is the on-disk form of one workload's goldens.
type goldenFile struct {
	Workload string  `json:"workload"`
	Digests  goldens `json:"digests"`
}

func goldenPath(dir, workload string) string { return filepath.Join(dir, workload+".json") }

func loadGoldens(dir, workload string) (goldens, error) {
	data, err := os.ReadFile(goldenPath(dir, workload))
	if err != nil {
		return nil, fmt.Errorf("goldens: %w", err)
	}
	var f goldenFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("goldens %s: %w", workload, err)
	}
	if f.Workload != workload || len(f.Digests) == 0 {
		return nil, fmt.Errorf("goldens %s: file holds %q with %d digests", workload, f.Workload, len(f.Digests))
	}
	return f.Digests, nil
}

// writeGoldens stores digests with one key per line, sorted, so the
// file diffs cleanly when a change moves a few outputs.
func writeGoldens(dir, workload string, g goldens) error {
	keys := make([]string, 0, len(g))
	for k := range g {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "{\n  \"workload\": %q,\n  \"digests\": {\n", workload)
	for i, k := range keys {
		sep := ","
		if i == len(keys)-1 {
			sep = ""
		}
		fmt.Fprintf(&b, "    %q: %q%s\n", k, g[k], sep)
	}
	b.WriteString("  }\n}\n")
	return os.WriteFile(goldenPath(dir, workload), []byte(b.String()), 0o644)
}

// digest hashes the JSON encodings of parts into a short hex string.
// Go's JSON float encoding round-trips exactly, so two outputs share a
// digest only when every field is bit-identical. An output JSON cannot
// encode (an infinite latency, say) gets a marker no golden holds, so
// it counts as wrong instead of stopping the run.
func digest(parts ...any) string {
	h := sha256.New()
	for _, p := range parts {
		data, err := json.Marshal(p)
		if err != nil {
			return "unencodable: " + err.Error()
		}
		h.Write(data)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// designDigest hashes a design Result minus its informational fields,
// which vary with worker count and cache state but never change the
// design.
func designDigest(r core.Result) string {
	r.Workers, r.CacheHits, r.CacheMisses, r.WarmHits = 0, 0, 0, 0
	return digest(r)
}

// outcomeDigest turns a search outcome into the value goldens record:
// the design digest, noFeasible, or "" for any other error.
func outcomeDigest(r core.Result, err error) string {
	switch {
	case err == nil:
		return designDigest(r)
	case errors.Is(err, explore.ErrNoFeasibleDesign):
		return noFeasible
	default:
		return ""
	}
}

// check compares an output digest with the golden for key. An empty
// digest means the operation failed outright; a key with no golden is
// a generator bug and counts as a wrong output.
func (g goldens) check(key, got string) outcome {
	want, ok := g[key]
	switch {
	case !ok:
		return opWrong
	case got == "":
		return opFailed
	case got != want:
		return opWrong
	}
	return opOK
}

// recordGoldens recomputes the goldens of the named workload, or of
// every workload for "all", from the current code and writes them to
// dir.
func recordGoldens(dir, name string) error {
	for _, w := range workloads {
		if name != "all" && name != w.name {
			continue
		}
		g, err := w.record()
		if err != nil {
			return fmt.Errorf("record %s: %w", w.name, err)
		}
		if err := writeGoldens(dir, w.name, g); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "recorded %d goldens for %s\n", len(g), w.name)
	}
	return nil
}
