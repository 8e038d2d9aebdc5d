// Package obs is the zero-dependency observability core of CHRYSALIS:
// a Prometheus-style metrics registry (labeled counters, gauges and
// bucketed histograms with lock-free hot paths) plus a span tracer
// whose recordings export as Chrome trace-event / Perfetto JSON.
//
// Everything is nil-safe: methods on nil metrics, nil tracers and nil
// spans are no-ops, so instrumented code needs no guards and pays only
// a predictable branch when observability is off.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds named metric families and renders them in Prometheus
// exposition format. Families render in registration order; labeled
// children render in creation order. The zero value is not usable —
// construct with NewRegistry.
type Registry struct {
	mu     sync.Mutex
	fams   []*family
	byName map[string]*family
}

// family is one named metric: its metadata plus either a single
// unlabeled child or a set of labeled children.
type family struct {
	name, help, typ string
	labelKeys       []string

	mu       sync.RWMutex
	children map[string]renderable // keyed on joined label values
	order    []string

	// fn, when non-nil, is sampled at render time (CounterFunc /
	// GaugeFunc families).
	fn func() int64
	// sampleFn, when non-nil, is sampled at render time and yields one
	// line per labeled child (GaugeSampleFunc families).
	sampleFn func() []LabeledValue
}

// renderable is anything a family can render as one or more exposition
// lines.
type renderable interface {
	renderProm(w io.Writer, name, labels string)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// lookup returns the family, creating it on first use. Re-registering a
// name with a different type or label set panics: that is a programming
// error, not a runtime condition.
func (r *Registry) lookup(name, help, typ string, labelKeys []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.typ != typ || len(f.labelKeys) != len(labelKeys) {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s(%d labels), was %s(%d labels)",
				name, typ, len(labelKeys), f.typ, len(f.labelKeys)))
		}
		return f
	}
	f := &family{name: name, help: help, typ: typ, labelKeys: labelKeys,
		children: make(map[string]renderable)}
	r.byName[name] = f
	r.fams = append(r.fams, f)
	return f
}

// child returns the family's child for the given label values, creating
// it with mk on first use. The hot path is a read-locked map hit; the
// returned metric itself is atomic, so callers that cache it touch no
// locks at all.
func (f *family) child(values []string, mk func() renderable) renderable {
	if len(values) != len(f.labelKeys) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d",
			f.name, len(f.labelKeys), len(values)))
	}
	key := strings.Join(values, "\x00")
	f.mu.RLock()
	c, ok := f.children[key]
	f.mu.RUnlock()
	if ok {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	c = mk()
	f.children[key] = c
	f.order = append(f.order, key)
	return c
}

// labelString renders {k="v",...} for a child key.
func (f *family) labelString(key string) string {
	if len(f.labelKeys) == 0 {
		return ""
	}
	values := strings.Split(key, "\x00")
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range f.labelKeys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, values[i])
	}
	b.WriteByte('}')
	return b.String()
}

// --- Counter ---

// Counter is a monotonically increasing value. All methods are atomic
// and nil-safe.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

func (c *Counter) renderProm(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %d\n", name, labels, c.v.Load())
}

// Counter returns the unlabeled counter with the given name, creating
// it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.lookup(name, help, "counter", nil)
	return f.child(nil, func() renderable { return &Counter{} }).(*Counter)
}

// CounterVec is a counter family partitioned by label values.
type CounterVec struct{ f *family }

// CounterVec returns the labeled counter family with the given name.
func (r *Registry) CounterVec(name, help string, labelKeys ...string) *CounterVec {
	return &CounterVec{f: r.lookup(name, help, "counter", labelKeys)}
}

// With returns the child counter for the given label values. Callers on
// hot paths should cache the result; the child itself is lock-free.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.child(values, func() renderable { return &Counter{} }).(*Counter)
}

// --- Gauge ---

// Gauge is a value that can go up and down. All methods are atomic and
// nil-safe.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add adds n (may be negative).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

func (g *Gauge) renderProm(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %d\n", name, labels, g.v.Load())
}

// Gauge returns the unlabeled gauge with the given name.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.lookup(name, help, "gauge", nil)
	return f.child(nil, func() renderable { return &Gauge{} }).(*Gauge)
}

// GaugeVec is a gauge family partitioned by label values.
type GaugeVec struct{ f *family }

// GaugeVec returns the labeled gauge family with the given name.
func (r *Registry) GaugeVec(name, help string, labelKeys ...string) *GaugeVec {
	return &GaugeVec{f: r.lookup(name, help, "gauge", labelKeys)}
}

// With returns the child gauge for the given label values. Callers on
// hot paths should cache the result; the child itself is lock-free.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.child(values, func() renderable { return &Gauge{} }).(*Gauge)
}

// CounterFunc registers a counter whose value is sampled from fn at
// render time — for values owned by another subsystem (e.g. the
// simulator's event counters).
func (r *Registry) CounterFunc(name, help string, fn func() int64) {
	r.lookup(name, help, "counter", nil).fn = fn
}

// GaugeFunc registers a gauge sampled from fn at render time.
func (r *Registry) GaugeFunc(name, help string, fn func() int64) {
	r.lookup(name, help, "gauge", nil).fn = fn
}

// LabeledValue is one sample of a GaugeSampleFunc family: the label
// values (matching the family's label keys) and the gauge reading.
type LabeledValue struct {
	Labels []string
	Value  int64
}

// GaugeSampleFunc registers a labeled gauge family whose entire child
// set is sampled from fn at render time — for label sets owned by
// another subsystem and unknown until scrape (e.g. per-client quota
// remaining, where clients come and go).
func (r *Registry) GaugeSampleFunc(name, help string, labelKeys []string, fn func() []LabeledValue) {
	r.lookup(name, help, "gauge", labelKeys).sampleFn = fn
}

// --- Histogram ---

// DefaultLatencyBuckets spans microseconds to minutes — wide enough for
// both a cache-hit design lookup and a full accelerator search.
var DefaultLatencyBuckets = []float64{
	.0001, .00025, .0005, .001, .0025, .005, .01, .025, .05, .1,
	.25, .5, 1, 2.5, 5, 10, 30, 60, 120, 300,
}

// Histogram is a bucketed distribution with a lock-free Observe path:
// per-bucket atomic counters plus a CAS-maintained float sum.
type Histogram struct {
	bounds []float64 // ascending upper bounds; +Inf bucket is implicit
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits
}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]atomic.Int64, len(bs)+1)}
}

// Observe records one sample. Nil-safe, lock-free.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	// Binary search for the first bound >= v.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

func (h *Histogram) renderProm(w io.Writer, name, labels string) {
	// Cumulative bucket counts with the le label appended to any
	// existing labels.
	open := "{"
	if labels != "" {
		open = labels[:len(labels)-1] + ","
	}
	var cum int64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket%sle=%q} %d\n", name, open, formatBound(b), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket%sle=\"+Inf\"} %d\n", name, open, cum)
	fmt.Fprintf(w, "%s_sum%s %g\n", name, labels, h.Sum())
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, h.count.Load())
}

func formatBound(b float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%f", b), "0"), ".")
}

// Histogram returns the unlabeled histogram with the given name. bounds
// are ascending upper bucket bounds (nil selects
// DefaultLatencyBuckets); the +Inf bucket is implicit.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefaultLatencyBuckets
	}
	f := r.lookup(name, help, "histogram", nil)
	return f.child(nil, func() renderable { return newHistogram(bounds) }).(*Histogram)
}

// --- Rendering ---

// WritePrometheus renders every family in exposition format, in
// registration order.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	fams := append([]*family(nil), r.fams...)
	r.mu.Unlock()
	for _, f := range fams {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		if f.fn != nil {
			fmt.Fprintf(w, "%s %d\n", f.name, f.fn())
			continue
		}
		if f.sampleFn != nil {
			for _, lv := range f.sampleFn() {
				if len(lv.Labels) != len(f.labelKeys) {
					continue // malformed sample: skip rather than emit bad exposition
				}
				fmt.Fprintf(w, "%s%s %d\n", f.name, f.labelString(strings.Join(lv.Labels, "\x00")), lv.Value)
			}
			continue
		}
		f.mu.RLock()
		keys := append([]string(nil), f.order...)
		f.mu.RUnlock()
		for _, key := range keys {
			f.mu.RLock()
			c := f.children[key]
			f.mu.RUnlock()
			c.renderProm(w, f.name, f.labelString(key))
		}
	}
}

// Quantile returns the q-quantile (0 < q <= 1) of a sorted sample using
// the nearest-rank definition: the ceil(q·n)-th smallest sample. Unlike
// the truncating index formula int(q·(n-1)) it is not biased low —
// p95 over 1024 sorted samples selects index 972, not 971.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}
