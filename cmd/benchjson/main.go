// Command benchjson converts `go test -bench` text output into a
// compact JSON record, so benchmark runs can be diffed (for example by
// cmd/benchguard) without parsing free-form bench logs.
//
// Usage:
//
//	go test -run='^$' -bench=. -benchmem . | benchjson -out BENCH.json
//
// Input is read from stdin (or -in); unparseable lines are ignored so
// the tool can consume raw `go test` output verbatim. Lines produced
// under `-cpu N` keep their GOMAXPROCS in the `procs` field (absent
// for single-proc runs), so one record can hold the same benchmark at
// several widths. With -baseline, each benchmark also gets a
// `speedup_vs_baseline` ratio (baseline ns/op ÷ this ns/op, matched by
// name against the baseline record's single-proc entry).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// Record is the serialized benchmark snapshot.
type Record struct {
	Note       string      `json:"note,omitempty"`
	Baseline   string      `json:"baseline,omitempty"`
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Pkg        string      `json:"pkg,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// Benchmark is one result line.
type Benchmark struct {
	Name string `json:"name"`
	// Procs is the GOMAXPROCS the line ran under (the -N name suffix);
	// 0/absent means the default single-proc form with no suffix.
	Procs       int     `json:"procs,omitempty"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
	// SpeedupVsBaseline is baseline ns/op ÷ this ns/op (>1 = faster than
	// the -baseline record), matched by name.
	SpeedupVsBaseline float64 `json:"speedup_vs_baseline,omitempty"`
}

// benchLine matches standard `go test -bench -benchmem` result lines:
//
//	BenchmarkCostModel-4   16525977   70.69 ns/op   0 B/op   0 allocs/op
//
// The -N suffix is GOMAXPROCS; `go test -cpu 1` (or GOMAXPROCS=1) omits
// it entirely.
var benchLine = regexp.MustCompile(
	`^Benchmark(\S+?)(?:-(\d+))?\s+(\d+)\s+([0-9.]+) ns/op(?:\s+(\d+) B/op)?(?:\s+(\d+) allocs/op)?`)

func parse(r io.Reader) (Record, error) {
	var rec Record
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			rec.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rec.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			rec.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			rec.Pkg = strings.TrimPrefix(line, "pkg: ")
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		iters, _ := strconv.ParseInt(m[3], 10, 64)
		ns, _ := strconv.ParseFloat(m[4], 64)
		b := Benchmark{Name: m[1], Iterations: iters, NsPerOp: ns}
		if m[2] != "" {
			b.Procs, _ = strconv.Atoi(m[2])
		}
		if m[5] != "" {
			b.BytesPerOp, _ = strconv.ParseInt(m[5], 10, 64)
		}
		if m[6] != "" {
			b.AllocsPerOp, _ = strconv.ParseInt(m[6], 10, 64)
		}
		rec.Benchmarks = append(rec.Benchmarks, b)
	}
	return rec, sc.Err()
}

// applyBaseline fills SpeedupVsBaseline on every benchmark with a name
// match in base. Baseline entries are matched single-proc first (the
// committed records predate -cpu variants), falling back to any entry
// with the name.
func applyBaseline(rec *Record, base Record) {
	ref := make(map[string]float64, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		if _, ok := ref[b.Name]; !ok || b.Procs <= 1 {
			ref[b.Name] = b.NsPerOp
		}
	}
	for i := range rec.Benchmarks {
		b := &rec.Benchmarks[i]
		if refNs, ok := ref[b.Name]; ok && b.NsPerOp > 0 {
			// Three decimals keeps the committed JSON diff-stable.
			b.SpeedupVsBaseline = math.Round(refNs/b.NsPerOp*1000) / 1000
		}
	}
}

func main() {
	in := flag.String("in", "", "bench output file (default stdin)")
	out := flag.String("out", "", "JSON output file (default stdout)")
	note := flag.String("note", "", "free-form annotation stored in the record")
	baseline := flag.String("baseline", "", "prior benchjson record to compute speedup_vs_baseline ratios against")
	flag.Parse()

	src := io.Reader(os.Stdin)
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		src = f
	}
	rec, err := parse(src)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if len(rec.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines found in input")
		os.Exit(1)
	}
	rec.Note = *note

	if *baseline != "" {
		data, err := os.ReadFile(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		var base Record
		if err := json.Unmarshal(data, &base); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: parsing baseline %s: %v\n", *baseline, err)
			os.Exit(1)
		}
		rec.Baseline = *baseline
		applyBaseline(&rec, base)
	}

	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
