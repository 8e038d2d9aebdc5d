package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestRegistryRender(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "Jobs accepted.")
	c.Add(3)
	g := r.Gauge("jobs_running", "Jobs in flight.")
	g.Set(2)
	g.Add(-1)
	v := r.CounterVec("http_requests_total", "Requests by code.", "code")
	v.With("200").Add(5)
	v.With("503").Inc()
	r.GaugeFunc("cache_entries", "Cache size.", func() int64 { return 7 })

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()

	for _, want := range []string{
		"# HELP jobs_total Jobs accepted.\n# TYPE jobs_total counter\njobs_total 3\n",
		"jobs_running 1\n",
		`http_requests_total{code="200"} 5`,
		`http_requests_total{code="503"} 1`,
		"# TYPE cache_entries gauge\ncache_entries 7\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered metrics missing %q in:\n%s", want, out)
		}
	}
}

func TestCounterIgnoresNegative(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "h")
	c.Add(5)
	c.Add(-3)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter after negative add = %d, want 5", got)
	}
}

func TestRegistryReturnsSameMetric(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "h")
	b := r.Counter("x_total", "h")
	if a != b {
		t.Fatal("re-registering the same counter returned a different instance")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering with a different type should panic")
		}
	}()
	r.Gauge("x_total", "h")
}

func TestNilMetricsAreSafe(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(2)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Sum() != 0 {
		t.Fatal("nil metrics should read as zero")
	}
}

func TestHistogramBucketsAndRender(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "Latency.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.7, 5, 100} {
		h.Observe(v)
	}
	if n := h.count.Load(); n != 5 {
		t.Fatalf("count = %d, want 5", n)
	}
	if got, want := h.Sum(), 106.25; math.Abs(got-want) > 1e-9 {
		t.Fatalf("sum = %g, want %g", got, want)
	}
	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="0.1"} 1`,
		`lat_seconds_bucket{le="1"} 3`,
		`lat_seconds_bucket{le="10"} 4`,
		`lat_seconds_bucket{le="+Inf"} 5`,
		"lat_seconds_sum 106.25",
		"lat_seconds_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("histogram rendering missing %q in:\n%s", want, out)
		}
	}
}

// TestQuantileNearestRank is the regression test for the low-biased
// quantile the old serve metrics computed: int(q*(len-1)) truncates
// toward the low sample, so p95 over 1024 samples read index 971. The
// nearest-rank definition selects ceil(0.95*1024) = 973rd smallest,
// i.e. index 972.
func TestQuantileNearestRank(t *testing.T) {
	samples := make([]float64, 1024)
	for i := range samples {
		samples[i] = float64(i) // sorted: value == index
	}
	if got := Quantile(samples, 0.95); got != 972 {
		t.Fatalf("p95 over 1024 samples = %g, want 972 (nearest rank)", got)
	}
	if biased := samples[int(0.95*float64(len(samples)-1))]; biased != 971 {
		t.Fatalf("old truncating formula should read 971, got %g", biased)
	}
	if got := Quantile(samples, 0.5); got != 511 {
		t.Fatalf("p50 = %g, want 511", got)
	}
	if got := Quantile(samples, 1); got != 1023 {
		t.Fatalf("p100 = %g, want 1023", got)
	}
	if got := Quantile(nil, 0.5); got != 0 {
		t.Fatalf("empty quantile = %g, want 0", got)
	}
}

func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops_total", "h")
	g := r.Gauge("depth", "h")
	h := r.Histogram("lat", "h", []float64{1, 2, 4, 8})
	v := r.CounterVec("by_kind_total", "h", "kind")

	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(float64(i % 10))
				v.With([]string{"a", "b", "c"}[i%3]).Inc()
				if i%100 == 0 {
					var b strings.Builder
					r.WritePrometheus(&b)
				}
			}
		}(w)
	}
	wg.Wait()

	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := g.Value(); got != 0 {
		t.Fatalf("gauge = %d, want 0", got)
	}
	if got := h.count.Load(); got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
	sum := v.With("a").Value() + v.With("b").Value() + v.With("c").Value()
	if sum != workers*perWorker {
		t.Fatalf("labeled counters sum = %d, want %d", sum, workers*perWorker)
	}
}

func TestGaugeSampleFuncRender(t *testing.T) {
	r := NewRegistry()
	r.GaugeSampleFunc("quota_tokens", "Tokens per client.", []string{"client"},
		func() []LabeledValue {
			return []LabeledValue{
				{Labels: []string{"alice"}, Value: 3},
				{Labels: []string{"bob"}, Value: 0},
				{Labels: []string{"broken", "extra"}, Value: 9}, // wrong arity: skipped
			}
		})

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()

	for _, want := range []string{
		"# HELP quota_tokens Tokens per client.\n# TYPE quota_tokens gauge\n",
		"quota_tokens{client=\"alice\"} 3\n",
		"quota_tokens{client=\"bob\"} 0\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered metrics missing %q in:\n%s", want, out)
		}
	}
	if strings.Contains(out, "broken") {
		t.Errorf("sample with mismatched label arity rendered:\n%s", out)
	}

	// Sampling happens at render time: the next write sees new values.
	r2 := NewRegistry()
	n := int64(0)
	r2.GaugeSampleFunc("live", "Live sample.", []string{"k"}, func() []LabeledValue {
		n++
		return []LabeledValue{{Labels: []string{"x"}, Value: n}}
	})
	var b1, b2 strings.Builder
	r2.WritePrometheus(&b1)
	r2.WritePrometheus(&b2)
	if !strings.Contains(b1.String(), `live{k="x"} 1`) || !strings.Contains(b2.String(), `live{k="x"} 2`) {
		t.Errorf("sample func not re-invoked per render:\nfirst: %s\nsecond: %s", b1.String(), b2.String())
	}
}
