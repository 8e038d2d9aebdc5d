package main

// daemon-fleet: an open loop at a fixed offered rate against two
// in-process chrysalisd nodes (serve.New behind loopback listeners),
// clustered with Peers/Self, each journaling to its own WAL directory
// with a warm tier attached and one job worker. The stream mixes exact
// repeats, near-duplicates, fresh MSP430 designs (some with
// verify=true) and synchronous simulations. Each request is timed from
// when it was due.
//
// Routing: simulations and repeats of designs the client has seen
// finish alternate between the nodes, so half of those repeats reach
// the node that does not own the key and are answered through the
// owner's cache (a peer hop). Designs that need a search go to their
// owner. Sending them to the other node instead would make it delegate
// and hold its only job worker while polling the owner; two nodes doing
// that at once wait on each other's queues forever.

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"chrysalis/internal/cluster"
	"chrysalis/internal/core"
	"chrysalis/internal/explore"
	"chrysalis/internal/serve"
	"chrysalis/internal/sim"
	"chrysalis/internal/units"
)

const (
	// fleetRate is the offered load in requests per second: about half
	// the two nodes' capacity on a 2-vCPU host, where completions fell
	// behind the offered rate at about 200 requests per second.
	fleetRate = 100.0
	// fleetSLO is the latency limit slo_miss_ratio counts against, a
	// little over twice the p99 seen at fleetRate.
	fleetSLO = 100 * time.Millisecond
	// fleetMaxOutstanding bounds requests in flight; a request due while
	// the bound is reached counts as failed (the backlog is growing).
	fleetMaxOutstanding = 256
	// fleetOpTimeout gives up on a request that has not finished.
	fleetOpTimeout = 30 * time.Second
	// Polls for a job's terminal state start at pollFirst and back off by
	// a quarter per poll up to pollMax, bounding how late completion is
	// observed to a quarter of the job's age.
	pollFirst = 1 * time.Millisecond
	pollMax   = 10 * time.Millisecond
	// fleetCacheEntries sizes each node's result cache above the number
	// of distinct designs one run submits, so a finished design is never
	// evicted and a repeat never needs a second search.
	fleetCacheEntries = 2048
	// fleetJobRecords and fleetTraceEvents bound what each node retains:
	// every job record keeps a preallocated span ring, about 1.3 MB at the
	// 16384-event default, which at this rate would hold gigabytes.
	fleetJobRecords  = 512
	fleetTraceEvents = 512
)

// scratchDir is where runs keep temporary files, inside the checkout.
var scratchDir = filepath.Join(".bench_build", "tmp")

type fleetNode struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	served chan struct{}
}

// fleetCluster is the two-node deployment plus the load generator's
// HTTP client, limited to one connection per node.
type fleetCluster struct {
	dir    string
	nodes  []*fleetNode
	ring   *cluster.Ring
	tr     *http.Transport
	client *http.Client

	mu       sync.Mutex
	finished map[string]bool // design keys the client has seen done
	keyDrift int             // responses whose key differs from serveKey
}

func startCluster() (*fleetCluster, error) {
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(scratchDir, "fleet-")
	if err != nil {
		return nil, err
	}
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	c := &fleetCluster{dir: dir, tr: tr, client: &http.Client{Transport: tr, Timeout: fleetOpTimeout},
		finished: make(map[string]bool)}
	var (
		lns  []net.Listener
		urls []string
	)
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			c.close()
			return nil, err
		}
		lns = append(lns, ln)
		urls = append(urls, "http://"+ln.Addr().String())
	}
	c.ring = cluster.NewRing(urls, 0)
	for i, ln := range lns {
		srv, err := serve.New(serve.Options{
			Workers:     1,
			WALDir:      filepath.Join(dir, fmt.Sprintf("node%d", i)),
			WarmCacheMB: 64,
			Peers:       urls,
			Self:        urls[i],
			CacheSize:   fleetCacheEntries,
			MaxJobs:     fleetJobRecords,
			TraceEvents: fleetTraceEvents,
			QueueDepth:  fleetMaxOutstanding,
		})
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			c.close()
			return nil, err
		}
		n := &fleetNode{srv: srv, hs: &http.Server{Handler: srv.Handler()}, url: urls[i], served: make(chan struct{})}
		go func() {
			defer close(n.served)
			_ = n.hs.Serve(ln) // returns http.ErrServerClosed on Shutdown
		}()
		c.nodes = append(c.nodes, n)
	}
	for i := range c.nodes {
		var h map[string]any
		if code, err := c.call(i, http.MethodGet, "/healthz", nil, &h); err != nil || code != http.StatusOK {
			c.close()
			return nil, fmt.Errorf("node %d not healthy: status %d: %v", i, code, err)
		}
	}
	return c, nil
}

// close stops both nodes, waits for them and removes their WAL files.
func (c *fleetCluster) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, n := range c.nodes {
		_ = n.hs.Shutdown(ctx) // in-flight requests have all finished
		<-n.served
	}
	for _, n := range c.nodes {
		_ = n.srv.Shutdown(ctx)
	}
	c.tr.CloseIdleConnections()
	_ = os.RemoveAll(c.dir)
}

// call performs one request against node i, decoding a JSON response
// into out when out is non-nil.
func (c *fleetCluster) call(i int, method, path string, body, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, c.nodes[i].url+path, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if out != nil && (resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted) {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}

// fleetObs is what one request produced.
type fleetObs struct {
	out        outcome
	latency    time.Duration
	submitHTTP time.Duration
	status     serve.JobStatus // final job status of design requests
	newJob     bool            // the submission started a search (202)
	node       int             // the node the design request went to
	findings   int             // audit findings of a verify job
	timeline   *serve.Timeline // fetched after completion for traced jobs
}

func terminal(s serve.JobState) bool {
	return s == serve.JobDone || s == serve.JobFailed || s == serve.JobCancelled
}

// jobDigest is the golden value of a finished design job: the design
// digest together with the verify summary, or noFeasible.
func jobDigest(st serve.JobStatus) string {
	switch {
	case st.State == serve.JobDone && st.Result != nil:
		return digest(designDigest(*st.Result), st.Verify)
	case st.State == serve.JobFailed && strings.Contains(st.Error, explore.ErrNoFeasibleDesign.Error()):
		return noFeasible
	}
	return ""
}

func (c *fleetCluster) do(op fleetOp, gold goldens) fleetObs {
	var obs fleetObs
	if op.Kind == "simulate" {
		var sum serve.SimSummary
		code, err := c.call(op.Node, http.MethodPost, "/v1/simulate", op.Sim, &sum)
		got := ""
		if err == nil && code == http.StatusOK {
			got = digest(sum)
		}
		obs.out = gold.check(simKey(op.Sim), got)
		return obs
	}
	key, node := c.route(op)
	t0 := time.Now()
	st := &obs.status
	code, err := c.call(node, http.MethodPost, "/v1/designs", op.Design, st)
	obs.submitHTTP = time.Since(t0)
	switch {
	case err != nil:
		obs.out = opFailed
		return obs
	case code != http.StatusOK && code != http.StatusAccepted:
		// Includes 429: a shed request counts as failed.
		obs.out = opFailed
		return obs
	}
	obs.newJob = code == http.StatusAccepted
	obs.node = node
	if st.Key != key {
		c.mu.Lock()
		c.keyDrift++
		c.mu.Unlock()
	}
	wait := pollFirst
	for !terminal(st.State) {
		if time.Since(t0) > fleetOpTimeout {
			obs.out = opFailed
			return obs
		}
		time.Sleep(wait)
		if wait = wait * 5 / 4; wait > pollMax {
			wait = pollMax
		}
		id := st.ID
		if code, err := c.call(node, http.MethodGet, "/v1/designs/"+id, nil, st); err != nil || code != http.StatusOK {
			obs.out = opFailed
			return obs
		}
	}
	obs.out = gold.check(designKey(op.Design), jobDigest(*st))
	if st.Audit != nil {
		obs.findings = len(st.Audit.Findings)
	}
	if obs.out == opOK && st.Verify != nil && (st.Audit == nil || !st.Audit.OK()) {
		obs.out = opWrong
	}
	if obs.out == opOK {
		c.mu.Lock()
		c.finished[designKey(op.Design)] = true
		c.mu.Unlock()
	}
	return obs
}

// route picks the node a design request goes to (see the file comment)
// and returns the serve key it expects the job to carry.
func (c *fleetCluster) route(op fleetOp) (string, int) {
	key := serveKey(op.Design)
	c.mu.Lock()
	done := c.finished[designKey(op.Design)]
	c.mu.Unlock()
	if op.Kind == "repeat" && done {
		return key, op.Node
	}
	owner := c.ring.Owner(key)
	for i, n := range c.nodes {
		if n.url == owner {
			return key, i
		}
	}
	return key, op.Node
}

// keyPayload mirrors the canonical identity serve hashes into a design
// key (internal/serve/key.go), with the server defaults the benchmark's
// requests rely on filled in. Every response's key is compared with it,
// and a run whose keys drift fails, so routing never silently breaks.
type keyPayload struct {
	Workload   string  `json:"workload"`
	Platform   string  `json:"platform"`
	Objective  string  `json:"objective"`
	Baseline   string  `json:"baseline"`
	MaxPanel   float64 `json:"max_panel"`
	MaxLatency float64 `json:"max_latency"`
	Budget     int     `json:"budget"`
	Seed       int64   `json:"seed"`
	Algorithm  string  `json:"algorithm"`
	Patience   int     `json:"patience"`
	Verify     bool    `json:"verify"`
	SimMode    string  `json:"sim_mode"`
}

func serveKey(r serve.DesignRequest) string {
	data, err := json.Marshal(keyPayload{
		Workload: "name:" + r.Workload, Platform: "msp430", Objective: fleetSpec(r).Objective.String(),
		Baseline: "chrysalis", MaxPanel: r.MaxPanelCM2, Budget: 400, Seed: r.Seed,
		Algorithm: "ga", Verify: r.Verify, SimMode: "event",
	})
	if err != nil {
		panic(err) // plain data always encodes
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

func runFleet(cfg runConfig) (*ledger, error) {
	var (
		gold goldens
		cl   *fleetCluster
	)
	setupS, _, err := timedSetup(func() (func(), error) {
		g, err := loadGoldens(cfg.goldenDir, "daemon-fleet")
		if err != nil {
			return nil, err
		}
		c, err := startCluster()
		if err != nil {
			return nil, err
		}
		gold, cl = g, c
		return c.close, nil
	})
	if err != nil {
		return nil, err
	}
	defer func() { // the cluster of the last pass
		if cl != nil {
			cl.close()
		}
	}()

	var (
		ops                 []fleetOp
		results             []fleetObs
		lags                []float64
		before, after       []promSample
		simBefore, simAfter eventStats
		fresh               = true // cl has served no pass yet
	)
	l, err := passes(cfg, setupS, func(l *ledger) error {
		if !fresh {
			// A pass starts on new nodes, so both passes of a traced run
			// see the same cold caches.
			cl.close()
			cl = nil
			c, err := startCluster()
			if err != nil {
				return err
			}
			cl = c
		}
		fresh = false
		l.openLoop = true
		gen := newFleetGen(cfg.seed, fleetRate)
		ops = nil
		for op := gen.next(); op.Due < l.window; op = gen.next() {
			ops = append(ops, op)
		}
		if l.trace {
			var err error
			if before, err = cl.scrape(); err != nil {
				return err
			}
		}
		simBefore = readEventStats()
		results = make([]fleetObs, len(ops))
		lags = make([]float64, len(ops))
		var (
			wg       sync.WaitGroup
			mu       sync.Mutex
			lastDone time.Time
			sem      = make(chan struct{}, fleetMaxOutstanding)
			perSlice = int(fleetRate) // arrivals per second
		)
		l.begin()
		for i, op := range ops {
			due := l.start.Add(op.Due)
			time.Sleep(time.Until(due))
			lags[i] = ms(time.Since(due))
			if i > 0 && i%perSlice == 0 {
				l.mark(i)
			}
			select {
			case sem <- struct{}{}:
			default:
				results[i] = fleetObs{out: opFailed, latency: fleetOpTimeout}
				continue
			}
			wg.Add(1)
			go func(i int, op fleetOp, due time.Time) {
				defer wg.Done()
				r := cl.do(op, gold)
				now := time.Now()
				r.latency = now.Sub(due)
				mu.Lock()
				if now.After(lastDone) {
					lastDone = now
				}
				mu.Unlock()
				if l.trace && r.newJob && r.out == opOK {
					// Fetched now, while the node still retains the job record.
					var tl serve.Timeline
					if code, err := cl.call(r.node, http.MethodGet, "/v1/designs/"+r.status.ID+"/timeline", nil, &tl); err == nil && code == http.StatusOK {
						r.timeline = &tl
					}
				}
				results[i] = r
				<-sem
			}(i, op, due)
		}
		wg.Wait()
		l.endAt(lastDone)
		simAfter = readEventStats()
		if cl.keyDrift > 0 {
			return fmt.Errorf("%d design keys differ from serveKey; update keyPayload to match internal/serve", cl.keyDrift)
		}
		for _, r := range results {
			l.op(r.latency, r.out)
		}
		if l.trace {
			var err error
			after, err = cl.scrape()
			return err
		}
		return nil
	})
	if err != nil || !cfg.trace {
		return l, err
	}

	var simMS []float64
	slo, findings := 0, 0
	for i, r := range results {
		findings += r.findings
		if r.out != opOK || r.latency > fleetSLO {
			slo++
		}
		if ops[i].Kind == "simulate" {
			simMS = append(simMS, ms(r.latency))
		}
	}
	l.addAudit(0, 0, findings)
	l.set("bench.slo_miss_ratio", ratio(float64(slo), float64(len(ops))))
	l.set("bench.simulate_p50_ms", quantile(simMS, 0.5))
	l.set("bench.gen_lag_p99_ms", quantile(lags, 0.99))
	reportSimDelta(l, simBefore, simAfter, len(ops))
	cl.traceLayers(l, ops, results, before, after)

	// Replay one finished fresh design per workload × objective.
	var (
		counters searchCounters
		cases    []designCase
		seen     = make(map[string]bool)
	)
	for i, r := range results {
		st := r.status
		// A job answered from the owner's cache carries the counters of
		// the search that filled it; count each search once.
		if !r.newJob || r.out != opOK || st.Result == nil || st.Cached {
			continue
		}
		counters.add(*st.Result)
		d := ops[i].Design
		combo := d.Workload + "|" + d.Objective
		if ops[i].Kind == "fresh" && !seen[combo] {
			seen[combo] = true
			cases = append(cases, designCase{spec: fleetSpec(d), result: *st.Result})
		}
	}
	counters.report(l)
	if err := replayModel(l, cases); err != nil {
		return nil, err
	}
	if err := replaySearch(l, cases); err != nil {
		return nil, err
	}
	return l, nil
}

// traceLayers derives the serve, wal and cluster metrics from the
// traced jobs' timelines and the nodes' /metrics deltas.
func (c *fleetCluster) traceLayers(l *ledger, ops []fleetOp, results []fleetObs, before, after []promSample) {
	phases := map[string][]float64{}
	var (
		submitMS, coverage []float64
		jobs, delegated    int
	)
	designOps := 0
	for i, r := range results {
		if ops[i].Kind == "simulate" {
			continue
		}
		designOps++
		if r.submitHTTP > 0 {
			submitMS = append(submitMS, ms(r.submitHTTP))
		}
		tl := r.timeline
		if tl == nil {
			continue // untraced, no new job, or the fetch failed
		}
		jobs++
		// Coverage: this node's phase durations summed over the span from
		// the first phase's start to the last phase's end.
		self := c.nodes[r.node].url
		var (
			sum, first, last int64
			seen             bool
		)
		for _, p := range tl.Phases {
			phases[p.Name] = append(phases[p.Name], float64(p.DurUS)/1000)
			if p.Node != self {
				continue
			}
			if !seen || p.StartUnixUS < first {
				first, seen = p.StartUnixUS, true
			}
			if end := p.StartUnixUS + p.DurUS; end > last {
				last = end
			}
			sum += p.DurUS
			if p.Name == "peer-hop" && p.Detail["outcome"] == "delegated" {
				delegated++
			}
		}
		coverage = append(coverage, ratio(float64(sum), float64(last-first)))
	}
	p50 := func(name string) float64 { return quantile(phases[name], 0.5) }
	l.set("serve.admission_ms", p50("admission"))
	l.set("serve.queue_wait_ms", p50("queue-wait"))
	l.set("serve.search_ms", p50("search"))
	l.set("serve.sim_ms", p50("sim"))
	l.set("wal.journal_ms", p50("wal-journal"))
	l.set("cluster.peer_hop_ms", p50("peer-hop"))
	l.set("serve.submit_http_ms", quantile(submitMS, 0.5))
	l.set("serve.timeline_coverage", quantile(coverage, 0.5))
	l.set("cluster.delegated_ratio", ratio(float64(delegated), float64(jobs)))

	delta := func(name string) float64 { return sumSamples(after, name) - sumSamples(before, name) }
	hits, misses := delta("chrysalisd_cache_hits_total"), delta("chrysalisd_cache_misses_total")
	l.set("serve.result_cache_hit_ratio", ratio(hits, hits+misses))
	l.set("serve.shed_per_op", ratio(delta("chrysalisd_admission_shed_total"), float64(designOps)))
	l.set("wal.appends_per_job", ratio(delta("chrysalisd_wal_appends_total"), misses))
	l.set("wal.fsync_p50_ms", 1000*histQuantile(before, after, "chrysalisd_wal_fsync_seconds", 0.5))
	l.set("cluster.peer_errors", delta("chrysalisd_cluster_peer_errors_total"))
}

// promSample is one line of a /metrics page.
type promSample struct {
	name   string
	labels string
	value  float64
}

// scrape reads /metrics from every node.
func (c *fleetCluster) scrape() ([]promSample, error) {
	var out []promSample
	for i, n := range c.nodes {
		resp, err := c.client.Get(n.url + "/metrics")
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			if line == "" || line[0] == '#' {
				continue
			}
			sp := strings.LastIndexByte(line, ' ')
			if sp < 0 {
				continue
			}
			v, err := strconv.ParseFloat(line[sp+1:], 64)
			if err != nil {
				continue
			}
			name, labels := line[:sp], ""
			if b := strings.IndexByte(name, '{'); b >= 0 {
				name, labels = name[:b], name[b:]
			}
			out = append(out, promSample{name: name, labels: fmt.Sprintf("node%d%s", i, labels), value: v})
		}
		err = sc.Err()
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// sumSamples adds every series of a metric across nodes and labels.
func sumSamples(s []promSample, name string) float64 {
	var v float64
	for _, p := range s {
		if p.name == name {
			v += p.value
		}
	}
	return v
}

// histQuantile estimates a quantile of the observations a histogram
// gained between two scrapes, interpolating linearly inside the bucket.
func histQuantile(before, after []promSample, name string, q float64) float64 {
	counts := map[float64]float64{}
	add := func(s []promSample, sign float64) {
		for _, p := range s {
			if p.name != name+"_bucket" {
				continue
			}
			i := strings.Index(p.labels, `le="`)
			if i < 0 {
				continue
			}
			le := p.labels[i+4:]
			le = le[:strings.IndexByte(le, '"')]
			bound, err := strconv.ParseFloat(le, 64)
			if err != nil {
				continue // +Inf
			}
			counts[bound] += sign * p.value
		}
	}
	add(after, 1)
	add(before, -1)
	bounds := make([]float64, 0, len(counts))
	for b := range counts {
		bounds = append(bounds, b)
	}
	sort.Float64s(bounds)
	if len(bounds) == 0 || counts[bounds[len(bounds)-1]] == 0 {
		return 0
	}
	target := q * counts[bounds[len(bounds)-1]]
	lo, below := 0.0, 0.0
	for _, b := range bounds {
		if c := counts[b]; c >= target {
			return lo + (b-lo)*ratio(target-below, c-below)
		} else {
			lo, below = b, c
		}
	}
	return lo
}

// fleetSpec is the core spec the daemon normalizes a design request to.
func fleetSpec(r serve.DesignRequest) core.Spec {
	obj, err := explore.ParseObjective(r.Objective)
	if err != nil {
		panic(err) // the generator only emits valid objectives
	}
	return core.Spec{
		WorkloadName: r.Workload,
		Platform:     explore.MSP,
		Objective:    obj,
		MaxPanel:     units.AreaCM2(r.MaxPanelCM2),
		Search:       core.SearchConfig{Algorithm: "ga", Budget: 400, Seed: r.Seed},
	}
}

func simSummary(r sim.Result) serve.SimSummary {
	return serve.SimSummary{
		Completed:        r.Completed,
		E2ELatencyS:      float64(r.E2ELatency),
		ActiveTimeS:      float64(r.ActiveTime),
		PowerCycles:      r.PowerCycles,
		Checkpoints:      r.Checkpoints,
		Resumes:          r.Resumes,
		TileRetries:      r.TileRetries,
		TilesDone:        r.TilesDone,
		SystemEfficiency: r.SystemEfficiency,
	}
}

func recordFleet() (goldens, error) {
	g := make(goldens)
	for _, w := range fleetWorkloads {
		for _, o := range objectives {
			for seed := int64(1); seed <= fleetSeeds; seed++ {
				for _, panel := range append([]float64{0}, fleetPanels...) {
					req := serve.DesignRequest{Workload: w, Objective: o, Seed: seed, MaxPanelCM2: panel, Verify: fleetVerify(o, seed)}
					spec := fleetSpec(req)
					res, err := core.Run(spec)
					if err != nil {
						if errors.Is(err, explore.ErrNoFeasibleDesign) {
							g[designKey(req)] = noFeasible
							continue
						}
						return nil, fmt.Errorf("%s: %w", designKey(req), err)
					}
					var sum *serve.SimSummary
					if req.Verify {
						run, rep, err := core.VerifyFlight(spec, res, nil, sim.NewRecorder(0))
						if err != nil {
							return nil, fmt.Errorf("%s verify: %w", designKey(req), err)
						}
						if !rep.OK() {
							return nil, fmt.Errorf("%s verify: audit findings %d", designKey(req), len(rep.Findings))
						}
						s := simSummary(run)
						sum = &s
					}
					g[designKey(req)] = digest(designDigest(res), sum)
				}
			}
		}
	}
	for _, w := range fleetWorkloads {
		for _, p := range simPanels {
			for _, c := range simCaps {
				req := serve.SimulateRequest{Workload: w, PanelAreaCM2: p, CapF: c}
				spec := core.Spec{WorkloadName: w, Platform: explore.MSP}
				run, err := core.Verify(spec, core.Result{PanelArea: units.AreaCM2(p), Cap: units.Capacitance(c), InferHW: "msp430", NPE: 1})
				if err != nil {
					return nil, fmt.Errorf("%s: %w", simKey(req), err)
				}
				g[simKey(req)] = digest(simSummary(run))
			}
		}
	}
	return g, nil
}
