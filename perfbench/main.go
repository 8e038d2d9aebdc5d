// Command perfbench is the repository benchmark: it drives CHRYSALIS
// through its public entry points on one of three seeded workloads,
// checks every output against recorded goldens, and prints the run's
// metrics as one JSON object on the last line of standard output.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload accel-cold --seed 1 --seconds 30 --trace 0
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
// ones. --record all rewrites the goldens from the current code.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// runConfig is one invocation's settings.
type runConfig struct {
	seed      int64
	seconds   float64
	trace     bool
	goldenDir string
}

// workload is one benchmark workload: run measures it, record
// recomputes its goldens.
type workload struct {
	name   string
	run    func(runConfig) (*ledger, error)
	record func() (goldens, error)
}

var workloads = []workload{
	{name: "accel-cold", run: runAccel, record: recordAccel},
	{name: "daemon-fleet", run: runFleet, record: recordFleet},
	{name: "day-series", run: runDay, record: recordDay},
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: accel-cold, daemon-fleet or day-series")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 30, "measured window in seconds")
		trace   = flag.Int("trace", 0, "0 prints end-to-end metrics, 1 runs traced and prints per-layer metrics")
		record  = flag.String("record", "", "recompute and write the goldens of one workload (or all), then exit")
		gdir    = flag.String("goldens", filepath.Join("perfbench", "goldens"), "goldens directory")
	)
	flag.Parse()
	if *record != "" {
		if err := recordGoldens(*gdir, *record); err != nil {
			fatal(err)
		}
		return
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("usage: perfbench --workload <accel-cold|daemon-fleet|day-series> --seed N --seconds S --trace 0|1"))
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, goldenDir: *gdir}

	mach := machineRecord(w.name, cfg.seed)
	led, err := w.run(cfg)
	if err != nil {
		fatal(err)
	}
	res := report(led)
	printSummary(os.Stderr, w.name, res)
	line, err := json.Marshal(mach)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("machine %s\n", line)
	line, err = json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report builds the result line. Every workload is sized so that no
// operation fails, so an error or a refusal makes the run incorrect,
// just as a wrong output does.
func report(l *ledger) result {
	attempted, failed, wrong := l.counts()
	res := result{
		Correct:   failed == 0 && wrong == 0,
		Attempted: attempted,
		Failed:    failed + wrong,
		Metrics:   make(map[string]metricValue),
	}
	for name, v := range l.metrics() {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[name] = metricValue{Value: v, Unit: metricUnits[name]}
	}
	return res
}

func printSummary(w io.Writer, workload string, res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s: attempted %d, failed %d, correct %v\n", workload, res.Attempted, res.Failed, res.Correct)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", n, m.Value, m.Unit)
	}
}

// machine is the record printed next to every run's numbers so no
// comparison mixes machines, toolchains or code versions.
type machine struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

func machineRecord(workload string, seed int64) machine {
	return machine{
		Workload:   workload,
		Seed:       seed,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Commit:     commitID(),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commitID names the code under test: the git HEAD when the working
// directory is a git checkout, otherwise "src-" and a digest of the Go
// sources and module files, so exported trees are told apart too.
func commitID() string {
	if head, err := os.ReadFile(filepath.Join(".git", "HEAD")); err == nil {
		ref := strings.TrimSpace(string(head))
		if r, ok := strings.CutPrefix(ref, "ref: "); ok {
			if id, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(r))); err == nil {
				return strings.TrimSpace(string(id))
			}
		} else {
			return ref
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if n := d.Name(); !d.IsDir() && (strings.HasSuffix(n, ".go") || n == "go.mod" || strings.HasSuffix(n, ".json")) {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fmt.Fprintf(h, "%s %d\n", path, len(data))
			h.Write(data)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "src-" + hex.EncodeToString(h.Sum(nil)[:8])
}
