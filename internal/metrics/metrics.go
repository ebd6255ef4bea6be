// Package metrics is the simulator stack's observability substrate: a
// lightweight registry of named counters, gauges, and fixed-bucket
// histograms, with per-worker shards that fold at launch end.
//
// The design mirrors the per-SM statistics pattern of internal/gpusim:
// hot paths write to a private Shard (plain slices, zero locks, zero
// atomics), and after every worker has joined, the owner folds the
// shards into the registry in a deterministic order. The registry's own
// cells are atomics, so a concurrently running pprof/expvar exporter can
// snapshot them at any time without stopping the simulation. Because
// every folded value is a sum of uint64 shard cells, the registry state
// after a launch is bit-identical at any worker count.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Kind distinguishes the three metric families.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Counter is a monotonically increasing uint64 cell. Direct Add is
// atomic (safe from any goroutine); sharded adds go through Shard.Count.
type Counter struct {
	name string
	id   int // index into a Shard's counter slice
	v    atomic.Uint64
}

// Add increments the counter directly (atomic; bypasses shards).
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Name returns the registered name.
func (c *Counter) Name() string { return c.name }

// Gauge is a last-write-wins float64 cell.
type Gauge struct {
	name string
	id   int
	bits atomic.Uint64 // math.Float64bits
	set  atomic.Bool
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	g.bits.Store(math.Float64bits(v))
	g.set.Store(true)
}

// Value returns the stored value (0 before the first Set).
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Name returns the registered name.
func (g *Gauge) Name() string { return g.name }

// Histogram is a fixed-bucket histogram over small non-negative ints:
// bucket i counts observations of value i, and the last bucket is
// open-ended (larger values clamp into it) — the same shape as
// stats.Histogram, but with atomic cells so exporters can read live.
type Histogram struct {
	name    string
	id      int
	buckets []atomic.Uint64
}

// Observe records one occurrence of v (atomic; bypasses shards).
func (h *Histogram) Observe(v int) { h.ObserveN(v, 1) }

// ObserveN records n occurrences of v.
func (h *Histogram) ObserveN(v int, n uint64) {
	h.buckets[h.clamp(v)].Add(n)
}

func (h *Histogram) clamp(v int) int {
	if v < 0 {
		v = 0
	}
	if v >= len(h.buckets) {
		v = len(h.buckets) - 1
	}
	return v
}

// Counts returns a copy of the bucket counts.
func (h *Histogram) Counts() []uint64 {
	out := make([]uint64, len(h.buckets))
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// Name returns the registered name.
func (h *Histogram) Name() string { return h.name }

// Registry owns a fixed-order set of metrics. Registration takes a lock;
// everything on the read/update path is lock-free.
type Registry struct {
	mu      sync.Mutex
	byName  map[string]int
	metrics []metricSlot
}

type metricSlot struct {
	name string
	kind Kind
	c    *Counter
	g    *Gauge
	h    *Histogram
}

// New creates an empty registry.
func New() *Registry {
	return &Registry{byName: make(map[string]int)}
}

// Counter registers (or fetches, if already registered) a counter.
// Registering an existing name with a different kind panics: metric
// names are a flat global namespace per registry.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if id, ok := r.byName[name]; ok {
		r.mustKind(id, KindCounter)
		return r.metrics[id].c
	}
	c := &Counter{name: name, id: len(r.metrics)}
	r.byName[name] = len(r.metrics)
	r.metrics = append(r.metrics, metricSlot{name: name, kind: KindCounter, c: c})
	return c
}

// Gauge registers (or fetches) a gauge.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if id, ok := r.byName[name]; ok {
		r.mustKind(id, KindGauge)
		return r.metrics[id].g
	}
	g := &Gauge{name: name, id: len(r.metrics)}
	r.byName[name] = len(r.metrics)
	r.metrics = append(r.metrics, metricSlot{name: name, kind: KindGauge, g: g})
	return g
}

// Histogram registers (or fetches) a histogram counting values
// 0..maxValue, with larger values clamped into the last bucket.
// Re-registering with a different bucket count panics.
func (r *Registry) Histogram(name string, maxValue int) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if id, ok := r.byName[name]; ok {
		r.mustKind(id, KindHistogram)
		h := r.metrics[id].h
		if len(h.buckets) != maxValue+1 {
			panic(fmt.Sprintf("metrics: histogram %q re-registered with %d buckets, has %d",
				name, maxValue+1, len(h.buckets)))
		}
		return h
	}
	h := &Histogram{name: name, id: len(r.metrics), buckets: make([]atomic.Uint64, maxValue+1)}
	r.byName[name] = len(r.metrics)
	r.metrics = append(r.metrics, metricSlot{name: name, kind: KindHistogram, h: h})
	return h
}

func (r *Registry) mustKind(id int, want Kind) {
	if got := r.metrics[id].kind; got != want {
		panic(fmt.Sprintf("metrics: %q registered as %v, requested as %v",
			r.metrics[id].name, got, want))
	}
}

// Shard is one worker's private accumulation buffer: plain slices, no
// locks, no atomics. A shard belongs to exactly one goroutine between
// NewShard and Fold. Shards index metrics by registration id, so a shard
// created before a later registration simply has no cell for it — create
// shards after all metrics are registered.
type Shard struct {
	reg      *Registry
	counters []uint64
	gauges   []float64
	gaugeSet []bool
	hists    [][]uint64
}

// NewShard creates a shard covering every metric registered so far.
func (r *Registry) NewShard() *Shard {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &Shard{
		reg:      r,
		counters: make([]uint64, len(r.metrics)),
		gauges:   make([]float64, len(r.metrics)),
		gaugeSet: make([]bool, len(r.metrics)),
		hists:    make([][]uint64, len(r.metrics)),
	}
	for id, m := range r.metrics {
		if m.kind == KindHistogram {
			s.hists[id] = make([]uint64, len(m.h.buckets))
		}
	}
	return s
}

// Count adds n to c's cell in the shard.
func (s *Shard) Count(c *Counter, n uint64) { s.counters[c.id] += n }

// SetGauge stores v in g's cell; at fold time the highest-indexed shard
// with a set gauge wins (fold order is the caller's shard order, which
// gpusim keeps at SM-ID order — deterministic).
func (s *Shard) SetGauge(g *Gauge, v float64) {
	s.gauges[g.id] = v
	s.gaugeSet[g.id] = true
}

// Observe records one occurrence of v in h's shard cell.
func (s *Shard) Observe(h *Histogram, v int) { s.ObserveN(h, v, 1) }

// ObserveN records n occurrences of v in h's shard cell.
func (s *Shard) ObserveN(h *Histogram, v int, n uint64) {
	s.hists[h.id][h.clamp(v)] += n
}

// Fold merges the shards into the registry in slice order and resets
// them for reuse. Counter and histogram folds are sums, so the resulting
// registry state is independent of how work was distributed over shards;
// gauges are last-set-wins in shard order.
func (r *Registry) Fold(shards ...*Shard) {
	for _, s := range shards {
		if s.reg != r {
			panic("metrics: folding a shard into a foreign registry")
		}
		for id := range s.counters {
			m := r.metrics[id]
			switch m.kind {
			case KindCounter:
				if s.counters[id] != 0 {
					m.c.v.Add(s.counters[id])
					s.counters[id] = 0
				}
			case KindGauge:
				if s.gaugeSet[id] {
					m.g.Set(s.gauges[id])
					s.gaugeSet[id] = false
					s.gauges[id] = 0
				}
			case KindHistogram:
				for b, n := range s.hists[id] {
					if n != 0 {
						m.h.buckets[b].Add(n)
						s.hists[id][b] = 0
					}
				}
			}
		}
	}
}

// Snapshot returns every metric's current value keyed by name: counters
// as uint64, gauges as float64, histograms as []uint64. The map is safe
// to mutate and to marshal (map keys serialize in sorted order).
func (r *Registry) Snapshot() map[string]any {
	r.mu.Lock()
	slots := make([]metricSlot, len(r.metrics))
	copy(slots, r.metrics)
	r.mu.Unlock()
	out := make(map[string]any, len(slots))
	for _, m := range slots {
		switch m.kind {
		case KindCounter:
			out[m.name] = m.c.Value()
		case KindGauge:
			out[m.name] = m.g.Value()
		case KindHistogram:
			out[m.name] = m.h.Counts()
		}
	}
	return out
}

// Names returns the registered metric names, sorted.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.byName))
	for n := range r.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
