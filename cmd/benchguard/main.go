// Command benchguard compares a fresh benchmark record (the JSON
// emitted by cmd/benchjson) against a baseline record and exits
// non-zero when a guarded benchmark regressed beyond the allowed ratio.
// It is a manual tool: one run against an old record is too noisy to
// gate CI on, so the repository gates regressions on exact allocation
// counts and measures speed with perfbench's interleaved runs instead.
//
// Usage:
//
//	benchguard -baseline BENCH_PR7.json -candidate /tmp/bench.json \
//	    -bench GASearch,AccelSearch -max-regress 0.25
//
// -baseline auto discovers the newest record by itself: it picks the
// BENCH_*.json in the current directory with the highest trailing
// number (BENCH_PR9.json beats BENCH_PR7.json).
//
// Entries are matched by (name, procs) so a -cpu 1,4 sweep guards the
// serial and parallel widths independently; repeated entries from a
// -count=N run collapse to their fastest, the estimate least
// contaminated by machine noise. -bench restricts which
// benchmarks can fail the run (others are still reported); empty
// guards every matched benchmark. A guarded benchmark missing from
// either record is itself a failure — silently dropping a benchmark
// must not green the gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Benchmark mirrors cmd/benchjson's entry; only the fields benchguard
// compares are declared, unknown fields are ignored.
type Benchmark struct {
	Name    string  `json:"name"`
	Procs   int     `json:"procs,omitempty"`
	NsPerOp float64 `json:"ns_per_op"`
}

// Record mirrors cmd/benchjson's envelope.
type Record struct {
	Benchmarks []Benchmark `json:"benchmarks"`
}

// benchKey identifies one benchmark variant across records.
type benchKey struct {
	name  string
	procs int
}

func (k benchKey) String() string {
	if k.procs > 0 {
		return fmt.Sprintf("%s-%d", k.name, k.procs)
	}
	return k.name
}

// delta is one matched benchmark's comparison.
type delta struct {
	key      benchKey
	baseNs   float64
	candNs   float64
	ratio    float64 // candNs / baseNs - 1; positive = slower
	guarded  bool
	breached bool
}

// minByKey collapses a record to the minimum positive ns/op per
// (name, procs). Records carry one entry per `go test` output line, so
// a -count=N run yields N entries per key; the fastest one is the
// least machine-noise-contaminated estimate and is what the guard
// should judge.
func minByKey(rec Record) map[benchKey]float64 {
	out := make(map[benchKey]float64, len(rec.Benchmarks))
	for _, b := range rec.Benchmarks {
		if b.NsPerOp <= 0 {
			continue
		}
		k := benchKey{b.Name, b.Procs}
		if prev, ok := out[k]; !ok || b.NsPerOp < prev {
			out[k] = b.NsPerOp
		}
	}
	return out
}

// compare matches candidate benchmarks to the baseline by (name,
// procs) — collapsing repeated entries (-count=N runs) to their
// fastest — and flags guarded entries whose slowdown exceeds
// maxRegress. guard is the set of guarded names (nil/empty = guard
// everything). The returned missing list holds guarded names absent
// from either record's match set.
func compare(base, cand Record, guard map[string]bool, maxRegress float64) (deltas []delta, missing []string) {
	ref := minByKey(base)
	matched := make(map[string]bool)
	for k, candNs := range minByKey(cand) {
		baseNs, ok := ref[k]
		if !ok || baseNs <= 0 {
			continue
		}
		d := delta{
			key:     k,
			baseNs:  baseNs,
			candNs:  candNs,
			ratio:   candNs/baseNs - 1,
			guarded: len(guard) == 0 || guard[k.name],
		}
		d.breached = d.guarded && d.ratio > maxRegress
		deltas = append(deltas, d)
		matched[k.name] = true
	}
	sort.Slice(deltas, func(i, j int) bool {
		if deltas[i].key.name != deltas[j].key.name {
			return deltas[i].key.name < deltas[j].key.name
		}
		return deltas[i].key.procs < deltas[j].key.procs
	})
	for name := range guard {
		if !matched[name] {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	return deltas, missing
}

// baselinePattern matches committed bench records; the captured digits
// order them (BENCH_PR10.json > BENCH_PR9.json, numerically not
// lexically).
var baselinePattern = regexp.MustCompile(`^BENCH_[A-Za-z]*(\d+)\.json$`)

// autoBaseline returns the BENCH_*.json in dir with the highest
// trailing number. Ties cannot happen (the number is the whole key).
func autoBaseline(dir string) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	best := -1
	var path string
	for _, e := range entries {
		m := baselinePattern.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		n, err := strconv.Atoi(m[1])
		if err != nil || n <= best {
			continue
		}
		best, path = n, filepath.Join(dir, e.Name())
	}
	if best < 0 {
		return "", fmt.Errorf("no BENCH_*.json records in %s", dir)
	}
	return path, nil
}

func readRecord(path string) (Record, error) {
	var r io.Reader
	if path == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			return Record{}, err
		}
		defer f.Close()
		r = f
	}
	var rec Record
	if err := json.NewDecoder(r).Decode(&rec); err != nil {
		return Record{}, fmt.Errorf("%s: %w", path, err)
	}
	if len(rec.Benchmarks) == 0 {
		return Record{}, fmt.Errorf("%s: no benchmarks in record", path)
	}
	return rec, nil
}

func main() {
	baseline := flag.String("baseline", "auto",
		"committed baseline record (benchjson output), or auto = newest BENCH_*.json in -dir")
	dir := flag.String("dir", ".", "directory searched by -baseline auto")
	candidate := flag.String("candidate", "-", "fresh record to check, or - for stdin")
	benches := flag.String("bench", "GASearch,AccelSearch",
		"comma-separated benchmark names that gate the run (empty = all matched)")
	maxRegress := flag.Float64("max-regress", 0.25,
		"maximum tolerated slowdown as a fraction (0.25 = fail beyond +25% ns/op)")
	flag.Parse()
	if *baseline == "" {
		fmt.Fprintln(os.Stderr, "benchguard: -baseline is required")
		os.Exit(2)
	}
	if *baseline == "auto" {
		picked, err := autoBaseline(*dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchguard: baseline auto-discovery: %v\n", err)
			os.Exit(2)
		}
		*baseline = picked
	}

	base, err := readRecord(*baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: baseline: %v\n", err)
		os.Exit(2)
	}
	cand, err := readRecord(*candidate)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: candidate: %v\n", err)
		os.Exit(2)
	}

	guard := map[string]bool{}
	for _, n := range strings.Split(*benches, ",") {
		if n = strings.TrimSpace(n); n != "" {
			guard[n] = true
		}
	}

	deltas, missing := compare(base, cand, guard, *maxRegress)
	failed := len(missing) > 0
	for _, d := range deltas {
		mark := " "
		switch {
		case d.breached:
			mark, failed = "F", true
		case d.guarded:
			mark = "*"
		}
		fmt.Printf("%s %-22s %12.0f -> %12.0f ns/op  %+6.1f%%\n",
			mark, d.key, d.baseNs, d.candNs, d.ratio*100)
	}
	for _, name := range missing {
		fmt.Printf("F %-22s missing from baseline or candidate record\n", name)
	}
	if failed {
		fmt.Fprintf(os.Stderr, "benchguard: FAIL — regression beyond +%.0f%% (or guarded benchmark missing)\n",
			*maxRegress*100)
		os.Exit(1)
	}
	fmt.Printf("benchguard: OK — %d benchmarks within +%.0f%% of %s\n",
		len(deltas), *maxRegress*100, *baseline)
}
