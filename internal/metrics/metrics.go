// Package metrics is a dependency-free run-level metrics registry: atomic
// counters, gauges and fixed-bucket histograms with named labels, plus a
// deterministic snapshot API with Prometheus-text and JSON encoders.
//
// The package follows the probe layer's cost model: nothing here is ever
// consulted on a hot path unless the caller installed it. Instrumented
// layers hold an atomic pointer to their meter struct and pay one untaken
// branch when metrics are disabled; when enabled, each event is one atomic
// add. Every accessor is nil-receiver safe, so `var c *Counter; c.Inc()`
// is a no-op rather than a panic — instrumentation never needs guards
// beyond the meter nil check.
//
// Determinism is load-bearing for the snapshot path: two snapshots of the
// same registry state must encode byte-identically (the CI summary gate
// diffs them), so entries are sorted by identity and floats are formatted
// with a fixed strategy, never through map iteration.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name=value dimension of a metric.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// NewCounter returns a standalone (unregistered) counter: layers that must
// count even when no registry is installed — the simcache stderr summary —
// use one and adopt a registered counter when metrics are enabled.
func NewCounter() *Counter { return &Counter{} }

// Inc adds one. Nil-safe.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n. Nil-safe.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value (queue depth, busy workers).
type Gauge struct {
	v atomic.Int64
}

// NewGauge returns a standalone gauge.
func NewGauge() *Gauge { return &Gauge{} }

// Set stores v. Nil-safe.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adjusts the gauge by delta (negative to decrease). Nil-safe.
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram: Observe finds the first bucket
// whose upper bound holds the value and increments it atomically. Bounds
// are fixed at construction (no resizing, no locking on the observe path);
// an implicit +Inf bucket catches the overflow.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	sum    atomic.Uint64  // float64 bits, CAS-accumulated
	count  atomic.Int64
}

// NewHistogram returns a standalone histogram over the given strictly
// increasing upper bounds.
func NewHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram bounds not increasing: %v", bounds))
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one value. Nil-safe.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		s := math.Float64frombits(old) + v
		if h.sum.CompareAndSwap(old, math.Float64bits(s)) {
			return
		}
	}
}

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations (0 for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// DurationBuckets is a general-purpose 1ms..60s log-spaced bound set for
// wall-time histograms (seconds).
var DurationBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60}

// kind tags a registered metric.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// registered pairs a metric with its identity.
type registered struct {
	name   string
	labels []Label
	id     string // name + canonical label rendering: the sort key
	kind   kind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// Registry holds named metrics. The zero value is NOT usable; construct
// with NewRegistry. A nil *Registry is a valid "disabled" registry: every
// constructor returns nil, and nil metrics no-op.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*registered
	order   []string // ids in first-registration order (Snapshot re-sorts)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*registered)}
}

// metricID renders the canonical identity: name plus the labels sorted by
// key in Prometheus text syntax. Deterministic by construction.
func metricID(name string, labels []Label) (string, []Label) {
	if len(labels) == 0 {
		return name, nil
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String(), ls
}

// lookup returns (creating if needed) the registered slot for the identity,
// verifying kind agreement: registering one id at two kinds is a
// programming error and panics immediately rather than corrupting exports.
func (r *Registry) lookup(name string, labels []Label, k kind) *registered {
	id, ls := metricID(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[id]; ok {
		if m.kind != k {
			panic(fmt.Sprintf("metrics: %s registered as %s and %s", id, m.kind, k))
		}
		return m
	}
	m := &registered{name: name, labels: ls, id: id, kind: k}
	r.metrics[id] = m
	r.order = append(r.order, id)
	return m
}

// Counter returns the counter registered under name+labels, creating it on
// first use. A nil registry returns nil (a usable no-op counter).
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	m := r.lookup(name, labels, kindCounter)
	if m.counter == nil {
		m.counter = NewCounter()
	}
	return m.counter
}

// Gauge returns the gauge registered under name+labels.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	m := r.lookup(name, labels, kindGauge)
	if m.gauge == nil {
		m.gauge = NewGauge()
	}
	return m.gauge
}

// Histogram returns the histogram registered under name+labels with the
// given bounds; bounds are fixed by the first registration.
func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	m := r.lookup(name, labels, kindHistogram)
	if m.hist == nil {
		m.hist = NewHistogram(bounds)
	}
	return m.hist
}
