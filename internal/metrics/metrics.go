// Package metrics is Daisy's dependency-free instrumentation core: atomic
// counters and gauges, fixed-bucket latency histograms with quantile
// estimates, and a registry that renders the lot as JSON or Prometheus text
// exposition. The hot-path cost of an observation is one or two atomic adds —
// no locks, no allocation — so the writer apply loop, the WAL append path,
// and per-row streaming can afford to be instrumented unconditionally.
//
// Every instrument method is safe on a nil receiver (a no-op), so an
// optional instrumentation seam (wal.Instruments) passes a zero struct
// instead of guarding each call site.
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing count. The zero value is ready to
// use; all methods are safe for concurrent use and on a nil receiver.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous value that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add adds n (may be negative).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram over float64 observations (latencies
// observe seconds). Buckets are defined by ascending upper bounds with an
// implicit +Inf bucket at the end; observation is a binary search plus three
// atomic adds. Quantiles are estimated by linear interpolation inside the
// target bucket — exact enough for p50/p95/p99 dashboards, cheap enough for
// the apply loop.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
}

// LatencyBuckets spans 50µs..30s exponentially — wide enough for a parse at
// the bottom and a saturated full clean at the top.
var LatencyBuckets = []float64{
	0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// SizeBuckets is a power-of-two ladder for count-valued histograms (batch
// sizes, rows per request).
var SizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384}

// NewHistogram builds a histogram over the given ascending upper bounds
// (+Inf is implicit). Prefer registering through a Registry.
func NewHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, buckets: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary search for the first bound >= v.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	h.buckets[lo].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records a latency in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Quantile estimates the q-quantile (0 < q < 1) by linear interpolation
// within the bucket holding the target rank. Values in the +Inf bucket
// resolve to the highest finite bound — the estimate saturates rather than
// inventing a value past the ladder, so an overflow-heavy distribution pins
// every quantile at the top bound. An empty histogram, or one with no finite
// bounds, reports 0.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 || len(h.bounds) == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum int64
	for i := range h.buckets {
		n := h.buckets[i].Load()
		if n == 0 {
			cum += n
			continue
		}
		if float64(cum+n) >= rank {
			if i >= len(h.bounds) { // +Inf bucket
				return h.bounds[len(h.bounds)-1]
			}
			lower := 0.0
			if i > 0 {
				lower = h.bounds[i-1]
			}
			frac := (rank - float64(cum)) / float64(n)
			if frac < 0 {
				frac = 0
			} else if frac > 1 {
				frac = 1
			}
			return lower + (h.bounds[i]-lower)*frac
		}
		cum += n
	}
	return h.bounds[len(h.bounds)-1]
}

// kind tags a registered metric.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

type entry struct {
	name, help, kind string
	c                *Counter
	g                *Gauge
	h                *Histogram
}

// Registry is an ordered collection of named instruments. Registration takes
// a mutex; observation never does. Rendering walks the instruments with
// atomic loads, so a scrape racing the hot path sees a consistent-enough
// point-in-time view without stopping anything.
type Registry struct {
	mu      sync.Mutex
	entries []*entry
	byName  map[string]*entry
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return &Registry{byName: make(map[string]*entry)} }

func (r *Registry) register(name, help, kind string) *entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.byName[name]; ok {
		if e.kind != kind {
			panic(fmt.Sprintf("metrics: %q re-registered as %s (was %s)", name, kind, e.kind))
		}
		return e
	}
	e := &entry{name: name, help: help, kind: kind}
	r.entries = append(r.entries, e)
	r.byName[name] = e
	return e
}

// Counter returns (registering on first use) the named counter.
func (r *Registry) Counter(name, help string) *Counter {
	e := r.register(name, help, kindCounter)
	r.mu.Lock()
	defer r.mu.Unlock()
	if e.c == nil {
		e.c = &Counter{}
	}
	return e.c
}

// Gauge returns (registering on first use) the named gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	e := r.register(name, help, kindGauge)
	r.mu.Lock()
	defer r.mu.Unlock()
	if e.g == nil {
		e.g = &Gauge{}
	}
	return e.g
}

// Histogram returns (registering on first use) the named histogram over the
// given bucket bounds; bounds are fixed by the first registration.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	e := r.register(name, help, kindHistogram)
	r.mu.Lock()
	defer r.mu.Unlock()
	if e.h == nil {
		e.h = NewHistogram(bounds)
	}
	return e.h
}

// Snapshot is one instrument's point-in-time state, shaped for JSON.
type Snapshot struct {
	Name  string  `json:"name"`
	Kind  string  `json:"kind"`
	Help  string  `json:"help,omitempty"`
	Value int64   `json:"value"`           // counter / gauge
	Count int64   `json:"count,omitempty"` // histogram
	Sum   float64 `json:"sum,omitempty"`
	P50   float64 `json:"p50,omitempty"`
	P95   float64 `json:"p95,omitempty"`
	P99   float64 `json:"p99,omitempty"`
}

// Snapshot captures every registered instrument in registration order.
func (r *Registry) Snapshot() []Snapshot {
	r.mu.Lock()
	entries := append([]*entry(nil), r.entries...)
	r.mu.Unlock()
	out := make([]Snapshot, 0, len(entries))
	for _, e := range entries {
		s := Snapshot{Name: e.name, Kind: e.kind, Help: e.help}
		switch e.kind {
		case kindCounter:
			s.Value = e.c.Value()
		case kindGauge:
			s.Value = e.g.Value()
		case kindHistogram:
			s.Count = e.h.Count()
			s.Sum = e.h.Sum()
			s.P50 = e.h.Quantile(0.50)
			s.P95 = e.h.Quantile(0.95)
			s.P99 = e.h.Quantile(0.99)
		}
		out = append(out, s)
	}
	return out
}

// WriteJSON renders the snapshot as a JSON array.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// WritePrometheus renders the registry in Prometheus text exposition format.
// labels, when non-empty, is injected verbatim into every sample's label set
// (e.g. `tenant="acme"`) — the serving layer uses it to merge per-tenant
// session registries into one scrape.
func (r *Registry) WritePrometheus(w io.Writer, labels string) {
	r.mu.Lock()
	entries := append([]*entry(nil), r.entries...)
	r.mu.Unlock()
	for _, e := range entries {
		if e.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", e.name, e.help)
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", e.name, e.kind)
		switch e.kind {
		case kindCounter, kindGauge:
			var v int64
			if e.kind == kindCounter {
				v = e.c.Value()
			} else {
				v = e.g.Value()
			}
			fmt.Fprintf(w, "%s%s %d\n", e.name, labelSet(labels), v)
		case kindHistogram:
			var cum int64
			for i, b := range e.h.bounds {
				cum += e.h.buckets[i].Load()
				fmt.Fprintf(w, "%s_bucket%s %d\n", e.name, labelSet(labels, fmt.Sprintf("le=%q", formatBound(b))), cum)
			}
			fmt.Fprintf(w, "%s_bucket%s %d\n", e.name, labelSet(labels, `le="+Inf"`), e.h.Count())
			fmt.Fprintf(w, "%s_sum%s %g\n", e.name, labelSet(labels), e.h.Sum())
			fmt.Fprintf(w, "%s_count%s %d\n", e.name, labelSet(labels), e.h.Count())
		}
	}
}

// labelSet joins non-empty label fragments into a `{a="b",c="d"}` block, or
// returns "" when every fragment is empty.
func labelSet(parts ...string) string {
	var keep []string
	for _, p := range parts {
		if p != "" {
			keep = append(keep, p)
		}
	}
	if len(keep) == 0 {
		return ""
	}
	return "{" + strings.Join(keep, ",") + "}"
}

// formatBound renders a bucket bound the way Prometheus expects (no
// scientific notation surprises for the common latency decades).
func formatBound(b float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.6f", b), "0"), ".")
}
