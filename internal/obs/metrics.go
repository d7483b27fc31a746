package obs

import (
	"maps"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Metrics is a registry of named counters, gauges, and timers.
// Registration (the first lookup of a name) takes a mutex; updates on
// the returned handles are atomic, so concurrent counting does not
// contend. Callers keep handles for hot paths and treat the registry
// as the single source of truth for anything they count.
type Metrics struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	timers   map[string]*Timer
	hists    map[string]*Histogram
}

// New returns an empty registry.
func New() *Metrics {
	return &Metrics{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		timers:   make(map[string]*Timer),
		hists:    make(map[string]*Histogram),
	}
}

// Counter is a monotonically increasing integer.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by d.
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float64 last-value-wins measurement.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add atomically adjusts the gauge by d (live counts: in-flight
// requests, unreleased query states).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// SetMax stores v if it exceeds the current value (high-water marks).
func (g *Gauge) SetMax(v float64) {
	for {
		old := g.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Timer accumulates durations: a count of observations and their total.
type Timer struct {
	count atomic.Int64
	nanos atomic.Int64
}

// Observe adds one duration sample.
func (t *Timer) Observe(d time.Duration) {
	t.count.Add(1)
	t.nanos.Add(int64(d))
}

// Count returns the number of observations.
func (t *Timer) Count() int64 { return t.count.Load() }

// Total returns the summed duration.
func (t *Timer) Total() time.Duration { return time.Duration(t.nanos.Load()) }

// Counter returns (registering on first use) the named counter.
func (m *Metrics) Counter(name string) *Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.counters[name]
	if c == nil {
		c = &Counter{}
		m.counters[name] = c
	}
	return c
}

// Gauge returns (registering on first use) the named gauge.
func (m *Metrics) Gauge(name string) *Gauge {
	m.mu.Lock()
	defer m.mu.Unlock()
	g := m.gauges[name]
	if g == nil {
		g = &Gauge{}
		m.gauges[name] = g
	}
	return g
}

// Timer returns (registering on first use) the named timer.
func (m *Metrics) Timer(name string) *Timer {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := m.timers[name]
	if t == nil {
		t = &Timer{}
		m.timers[name] = t
	}
	return t
}

// Histogram returns (registering on first use) the named histogram.
// bounds applies only at registration (nil = LatencyBuckets); later
// lookups return the existing histogram whatever bounds they pass.
func (m *Metrics) Histogram(name string, bounds []float64) *Histogram {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.hists[name]
	if h == nil {
		h = NewHistogram(bounds)
		m.hists[name] = h
	}
	return h
}

// Set is shorthand for Gauge(name).Set(v).
func (m *Metrics) Set(name string, v float64) { m.Gauge(name).Set(v) }

// Merge adds every metric of src into m: counters add, timers add
// their counts and totals, histograms add bucket by bucket, and gauges
// take src's value (the last merge wins). A run that solves more than
// once merges each solve's registry into one that covers them all.
func (m *Metrics) Merge(src *Metrics) {
	src.mu.Lock()
	counters := maps.Clone(src.counters)
	gauges := maps.Clone(src.gauges)
	timers := maps.Clone(src.timers)
	hists := maps.Clone(src.hists)
	src.mu.Unlock()
	for name, c := range counters {
		m.Counter(name).Add(c.Value())
	}
	for name, g := range gauges {
		m.Gauge(name).Set(g.Value())
	}
	for name, t := range timers {
		d := m.Timer(name)
		d.count.Add(t.Count())
		d.nanos.Add(int64(t.Total()))
	}
	for name, h := range hists {
		m.Histogram(name, h.bounds).merge(h)
	}
}

// Snapshot flattens the registry into name → value. Counters and
// gauges export under their own names; a timer named t exports
// "t.count" and "t.sec" (total seconds); a histogram named h exports
// "h.count", "h.sum", and the estimated "h.p50"/"h.p95"/"h.p99".
func (m *Metrics) Snapshot() map[string]float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]float64, len(m.counters)+len(m.gauges)+2*len(m.timers)+5*len(m.hists))
	for name, c := range m.counters {
		out[name] = float64(c.Value())
	}
	for name, g := range m.gauges {
		out[name] = g.Value()
	}
	for name, t := range m.timers {
		out[name+".count"] = float64(t.Count())
		out[name+".sec"] = t.Total().Seconds()
	}
	for name, h := range m.hists {
		h.addTo(name, out)
	}
	return out
}
