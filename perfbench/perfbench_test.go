package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"chrysalis/internal/core"
	"chrysalis/internal/serve"
)

const goldenDir = "goldens"

// streams renders the first n inputs of every workload for a seed.
func streams(seed int64, n int) []string {
	var out []string
	as := newAccelStream(seed)
	fg := newFleetGen(seed, fleetRate)
	ds := newDayStream(seed)
	for i := 0; i < n; i++ {
		out = append(out, as.at(i).key(), fmt.Sprintf("%+v", fg.next()), ds.at(i).key())
	}
	return out
}

func TestGeneratorsAreDeterministicPerSeed(t *testing.T) {
	a, b := streams(7, 500), streams(7, 500)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed produced different request streams")
	}
	c := streams(8, 500)
	for w, name := range []string{"accel-cold", "daemon-fleet", "day-series"} {
		same := true
		for i := w; i < len(a); i += 3 {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Errorf("%s: seeds 7 and 8 produced the same stream", name)
		}
	}
}

func TestGeneratedInputsHaveGoldens(t *testing.T) {
	for _, w := range []string{"accel-cold", "daemon-fleet", "day-series"} {
		g, err := loadGoldens(goldenDir, w)
		if err != nil {
			t.Fatal(err)
		}
		as, fg, ds := newAccelStream(3), newFleetGen(3, fleetRate), newDayStream(3)
		for i := 0; i < 3000; i++ {
			var key string
			switch w {
			case "accel-cold":
				key = as.at(i).key()
			case "day-series":
				key = ds.at(i).key()
			default:
				op := fg.next()
				key = designKey(op.Design)
				if op.Kind == "simulate" {
					key = simKey(op.Sim)
				}
			}
			if _, ok := g[key]; !ok {
				t.Fatalf("%s input %d (%s) has no golden", w, i, key)
			}
		}
	}
}

func TestGoldensMatchCurrentCode(t *testing.T) {
	g, err := loadGoldens(goldenDir, "accel-cold")
	if err != nil {
		t.Fatal(err)
	}
	d := accelDesign{Workload: "kws", Objective: "lat*sp", Seed: 3}
	res, err := core.Run(d.spec())
	if got := g.check(d.key(), outcomeDigest(res, err)); got != opOK {
		t.Errorf("accel-cold %s: outcome %d, want ok", d.key(), got)
	}

	g, err = loadGoldens(goldenDir, "day-series")
	if err != nil {
		t.Fatal(err)
	}
	env, err := dayEnv()
	if err != nil {
		t.Fatal(err)
	}
	op := dayOp{Design: 1, Idle: dayIdles[0]}
	r, err := dayReplay(op, env)
	if err != nil {
		t.Fatal(err)
	}
	if !r.auditOK || g.check(op.key(), r.digest) != opOK {
		t.Errorf("day-series %s: audit ok %v, digest mismatch %v", op.key(), r.auditOK, g.check(op.key(), r.digest) != opOK)
	}
}

// TestPerturbedOutputIsCaught shows the checks catch a changed design,
// a changed verify summary and a changed simulation, and ignore the
// informational fields.
func TestPerturbedOutputIsCaught(t *testing.T) {
	g, err := loadGoldens(goldenDir, "daemon-fleet")
	if err != nil {
		t.Fatal(err)
	}
	req := serve.DesignRequest{Workload: "har", Objective: "lat*sp", Seed: 1, Verify: fleetVerify("lat*sp", 1)}
	if !req.Verify {
		t.Fatal("seed 1 lat*sp is expected to verify")
	}
	spec := fleetSpec(req)
	res, err := core.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	run, rep, err := core.VerifyFlight(spec, res, nil, nil)
	if err != nil || rep != nil {
		t.Fatalf("verify: %v", err)
	}
	sum := simSummary(run)
	st := serve.JobStatus{State: serve.JobDone, Result: &res, Verify: &sum}
	key := designKey(req)
	if got := g.check(key, jobDigest(st)); got != opOK {
		t.Fatalf("unperturbed job: outcome %d, want ok", got)
	}

	info := res
	info.Workers, info.CacheHits, info.CacheMisses, info.WarmHits = 7, 1, 2, 3
	st.Result = &info
	if got := g.check(key, jobDigest(st)); got != opOK {
		t.Errorf("informational fields changed the outcome to %d", got)
	}

	bad := res
	bad.LatSP *= 1 + 1e-12
	st.Result = &bad
	if got := g.check(key, jobDigest(st)); got != opWrong {
		t.Errorf("perturbed lat·sp: outcome %d, want wrong", got)
	}

	st.Result = &res
	badSum := sum
	badSum.Checkpoints++
	st.Verify = &badSum
	if got := g.check(key, jobDigest(st)); got != opWrong {
		t.Errorf("perturbed verify summary: outcome %d, want wrong", got)
	}

	st = serve.JobStatus{State: serve.JobFailed, Error: "no feasible design"}
	if got := g.check(key, jobDigest(st)); got != opWrong {
		t.Errorf("infeasible where the golden has a design: outcome %d, want wrong", got)
	}
	st.Error = "boom"
	if got := g.check(key, jobDigest(st)); got != opFailed {
		t.Errorf("failed job: outcome %d, want failed", got)
	}
	if got := g.check("no|such|key", "x"); got != opWrong {
		t.Errorf("input without golden: outcome %d, want wrong", got)
	}
}

// TestFailedOperationFailsTheRun shows that an operation that errors
// fails the run just as a wrong output does, in an untraced run and in
// either pass of a traced one, and that per-operation figures count
// successful operations only.
func TestFailedOperationFailsTheRun(t *testing.T) {
	g := goldens{"k": "d"}
	for _, c := range []struct {
		name string
		got  string
	}{
		{"error", outcomeDigest(core.Result{}, errors.New("search failed"))},
		{"wrong", "x"},
	} {
		for _, pass := range []string{"untraced", "traced base", "traced"} {
			l := newLedger(pass == "traced", time.Second)
			l.op(time.Millisecond, opOK)
			l.op(time.Millisecond, g.check("k", c.got))
			if pass == "traced base" {
				l = &ledger{trace: true, base: l, layer: map[string]float64{}}
			}
			if res := report(l); res.Correct || res.Attempted != 2 || res.Failed != 1 {
				t.Errorf("%s op in %s pass: correct %v, attempted %d, failed %d; want false, 2, 1",
					c.name, pass, res.Correct, res.Attempted, res.Failed)
			}
		}
	}

	l := newLedger(false, time.Second)
	l.elapsed, l.cpu, l.alloc = time.Second, 10*time.Millisecond, 4<<10
	l.op(time.Millisecond, opOK)
	l.op(time.Millisecond, opFailed)
	m := l.endToEnd()
	if m["alloc_kb_per_op"] != 4 || m["cpu_ms_per_op"] != 10 || m["op_wall_ms"] != 1000 {
		t.Errorf("per-op figures %v count the failed operation", m)
	}
}

func TestServeKeyMatchesServer(t *testing.T) {
	cl, err := startCluster()
	if err != nil {
		t.Fatal(err)
	}
	defer cl.close()
	req := serve.DesignRequest{Workload: "kws", Objective: "sp", Seed: 5, MaxPanelCM2: 16}
	var st serve.JobStatus
	if code, err := cl.call(0, "POST", "/v1/designs", req, &st); err != nil || (code != 200 && code != 202) {
		t.Fatalf("submit: status %d: %v", code, err)
	}
	if want := serveKey(req); st.Key != want {
		t.Fatalf("server key %s, serveKey %s", st.Key, want)
	}
}

func TestQuantiles(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if q := quantile(xs, 0.5); q != 3 {
		t.Errorf("median %v, want 3", q)
	}
	if q := quantile(xs, 0.25); q != 2 {
		t.Errorf("p25 %v, want 2", q)
	}
	before := []promSample{{name: "h_bucket", labels: `{le="1"}`, value: 0}, {name: "h_bucket", labels: `{le="2"}`, value: 0}}
	after := []promSample{{name: "h_bucket", labels: `{le="1"}`, value: 2}, {name: "h_bucket", labels: `{le="2"}`, value: 4}, {name: "h_bucket", labels: `{le="+Inf"}`, value: 4}}
	if q := histQuantile(before, after, "h", 0.75); q != 1.5 {
		t.Errorf("histogram p75 %v, want 1.5", q)
	}

	// The open loop's op_wall_ms is the median of per-slice mean latencies;
	// arrivals after the last slice mark are left out.
	l := newLedger(false, time.Second)
	l.openLoop = true
	l.marks = []mark{{ops: 0}, {ops: 2}, {ops: 4}, {ops: 6}}
	for _, v := range []float64{1, 3, 10, 10, 4, 4, 500} {
		l.op(time.Duration(v*float64(time.Millisecond)), opOK)
	}
	if got := l.endToEnd()["op_wall_ms"]; got != 4 {
		t.Errorf("open-loop op_wall_ms %v, want 4", got)
	}
}

// TestBenchmarkJSONListsPrintedMetrics keeps BENCHMARK.json and the
// printed metric sets in step.
func TestBenchmarkJSONListsPrintedMetrics(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		trace  bool
		listed []struct{ Name, Unit string }
	}{{false, b.EndToEnd}, {true, b.PerLayer}} {
		l := newLedger(c.trace, time.Second)
		l.elapsed = time.Second
		l.op(time.Millisecond, opOK)
		got := l.metrics()
		if len(got) != len(c.listed) {
			t.Errorf("trace %v: prints %d metrics, BENCHMARK.json lists %d", c.trace, len(got), len(c.listed))
		}
		for _, m := range c.listed {
			if _, ok := got[m.Name]; !ok || metricUnits[m.Name] != m.Unit {
				t.Errorf("trace %v: %s (%s) printed %v with unit %q", c.trace, m.Name, m.Unit, ok, metricUnits[m.Name])
			}
		}
	}
}
