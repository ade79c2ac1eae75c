// Package obsv is datamaran's observability core: a dependency-free
// metrics registry (atomic counters, gauges, fixed-bucket histograms)
// plus a lightweight span timer for stage tracing.
//
// The design is allocation-conscious: callers register a metric once
// (Registry.Counter / Gauge / Histogram return a stable handle for a
// given name+labels) and hot paths touch only that handle — an atomic
// add, never a map lookup or an allocation. Label sets are part of a
// metric's identity and must be bounded (routes, stages, formats —
// never file paths or query text); the serve-side cardinality guard
// test pins the full family set.
//
// A nil *Registry is valid everywhere: it hands out detached metrics
// that record into nowhere, so instrumented code never nil-checks.
package obsv

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing uint64.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a signed instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the value by n (negative to decrement).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram: upper bounds are set at
// registration and never change, so Observe is a binary search plus
// two atomic adds.
type Histogram struct {
	bounds []float64 // ascending upper bounds; +Inf bucket is implicit
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

// DefBuckets is the default latency bucket layout, in seconds.
var DefBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// HistSnapshot is a point-in-time copy of a histogram.
type HistSnapshot struct {
	Bounds []float64 // upper bounds; the +Inf bucket is Counts[len(Bounds)]
	Counts []uint64  // per-bucket (not cumulative)
	Count  uint64
	Sum    float64
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]uint64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sum.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Quantile estimates the q-th quantile (0..1) by linear interpolation
// within the containing bucket, the usual Prometheus-style estimate.
// The lowest bucket interpolates from zero; the +Inf bucket returns
// the highest finite bound. Returns NaN on an empty histogram.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	cum := uint64(0)
	for i, c := range s.Counts {
		cum += c
		if float64(cum) >= rank && c > 0 {
			if i >= len(s.Bounds) {
				// +Inf bucket: the best available estimate is the
				// largest finite bound.
				if len(s.Bounds) == 0 {
					return math.Inf(1)
				}
				return s.Bounds[len(s.Bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = s.Bounds[i-1]
			}
			hi := s.Bounds[i]
			inBucket := float64(c)
			before := float64(cum - c)
			frac := (rank - before) / inBucket
			return lo + (hi-lo)*frac
		}
	}
	if len(s.Bounds) == 0 {
		return math.Inf(1)
	}
	return s.Bounds[len(s.Bounds)-1]
}

// metricKind discriminates registry entries.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// entry is one registered series: a family name, a rendered label
// signature, and exactly one live metric.
type entry struct {
	name   string
	labels string // rendered {k="v",...} or ""
	kind   metricKind
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Registry holds registered metrics and renders snapshots. The zero
// value is not usable; call NewRegistry. A nil *Registry hands out
// detached metrics (see package comment).
type Registry struct {
	mu      sync.Mutex
	series  map[string]*entry     // name + labels -> series
	kinds   map[string]metricKind // family name -> kind, guards cross-kind reuse
	buckets map[string][]float64  // family name -> bucket layout (histograms)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		series:  map[string]*entry{},
		kinds:   map[string]metricKind{},
		buckets: map[string][]float64{},
	}
}

// renderLabels turns ("k1", "v1", "k2", "v2") into a deterministic
// `{k1="v1",k2="v2"}` signature with keys sorted and values escaped.
// Panics on an odd-length pair list — a programmer error, caught by
// any test exercising the call site.
func renderLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic(fmt.Sprintf("obsv: odd label list %q", kv))
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		pairs = append(pairs, pair{kv[i], kv[i+1]})
	}
	// The comparator must be a total order: with duplicate keys (legal —
	// the rendered signature just repeats the key), sorting on the key
	// alone would let sort.Slice's unstable internals pick the value
	// order, and the same counter could split across two signatures
	// between Go releases.
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].k != pairs[j].k {
			return pairs[i].k < pairs[j].k
		}
		return pairs[i].v < pairs[j].v
	})
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(p.v))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// lookup finds or creates the series for name+labels, enforcing that a
// family never changes kind.
func (r *Registry) lookup(name string, kind metricKind, bounds []float64, labels []string) *entry {
	sig := renderLabels(labels)
	key := name + sig
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.series[key]; ok {
		if e.kind != kind {
			panic(fmt.Sprintf("obsv: metric %s re-registered as a different kind", key))
		}
		return e
	}
	if k, ok := r.kinds[name]; ok && k != kind {
		panic(fmt.Sprintf("obsv: metric family %s re-registered as a different kind", name))
	}
	e := &entry{name: name, labels: sig, kind: kind}
	switch kind {
	case kindCounter:
		e.c = &Counter{}
	case kindGauge:
		e.g = &Gauge{}
	case kindHistogram:
		if b, ok := r.buckets[name]; ok {
			bounds = b // the first registration pins the family's layout
		}
		e.h = newHistogram(bounds)
		r.buckets[name] = e.h.bounds
	}
	r.series[key] = e
	r.kinds[name] = kind
	return e
}

// Counter returns the counter for name and the given label pairs,
// registering it on first use.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return &Counter{}
	}
	return r.lookup(name, kindCounter, nil, labels).c
}

// Gauge returns the gauge for name and the given label pairs.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return &Gauge{}
	}
	return r.lookup(name, kindGauge, nil, labels).g
}

// Histogram returns the histogram for name and the given label pairs.
// The first registration of a family pins its bucket layout; later
// calls reuse it regardless of the bounds argument.
func (r *Registry) Histogram(name string, bounds []float64, labels ...string) *Histogram {
	if r == nil {
		return newHistogram(bounds)
	}
	return r.lookup(name, kindHistogram, bounds, labels).h
}

// Metric is one series in a Snapshot.
type Metric struct {
	Name   string
	Labels string // rendered {k="v",...} signature, "" when unlabeled
	Kind   string // "counter", "gauge" or "histogram"
	Value  float64
	Hist   *HistSnapshot // histograms only
}

// Snapshot returns every registered series, sorted by family name then
// label signature — the deterministic order WritePrometheus renders.
func (r *Registry) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	entries := make([]*entry, 0, len(r.series))
	for _, e := range r.series {
		entries = append(entries, e)
	}
	r.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].name != entries[j].name {
			return entries[i].name < entries[j].name
		}
		return entries[i].labels < entries[j].labels
	})
	out := make([]Metric, 0, len(entries))
	for _, e := range entries {
		m := Metric{Name: e.name, Labels: e.labels}
		switch e.kind {
		case kindCounter:
			m.Kind = "counter"
			m.Value = float64(e.c.Value())
		case kindGauge:
			m.Kind = "gauge"
			m.Value = float64(e.g.Value())
		case kindHistogram:
			m.Kind = "histogram"
			h := e.h.Snapshot()
			m.Hist = &h
		}
		out = append(out, m)
	}
	return out
}

// Span times one stage and records the elapsed seconds into a
// histogram on End. The zero Span (and a Span over a nil histogram)
// is safe: End just returns the elapsed time.
type Span struct {
	h     *Histogram
	start time.Time
}

// StartSpan begins timing a stage; pass the histogram the duration
// should land in (typically Registry.Histogram(..., DefBuckets, ...)).
func StartSpan(h *Histogram) Span {
	return Span{h: h, start: time.Now()}
}

// End stops the span, records it, and returns the elapsed time.
func (s Span) End() time.Duration {
	if s.start.IsZero() {
		return 0
	}
	d := time.Since(s.start)
	if s.h != nil {
		s.h.Observe(d.Seconds())
	}
	return d
}
