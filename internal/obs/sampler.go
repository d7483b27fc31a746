package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// Sampler periodically evaluates a source function and keeps the
// results in a bounded ring buffer — the substrate time-series view
// behind the daemon's /debug/timeseries endpoint and the batch
// commands' -progress heartbeat. BDD behavior (live nodes, op-cache
// hit ratios, GC pressure) is invisible in end-of-run totals; a
// bounded trail of periodic snapshots is what order autotuning and
// op-cache sizing need to see.
//
// The sampler owns one goroutine between Start and Stop. The source
// runs on that goroutine; it must be safe to call concurrently with
// whatever it observes (registry snapshots and runtime stats are).
type Sampler struct {
	interval time.Duration
	capacity int
	source   func() map[string]float64
	onSample func(SamplePoint)

	mu   sync.Mutex
	ring []SamplePoint
	next int
	full bool

	stop chan struct{}
	done chan struct{}
}

// SamplePoint is one timestamped observation of every sampled series.
type SamplePoint struct {
	Time   time.Time          `json:"t"`
	Values map[string]float64 `json:"values"`
}

// NewSampler builds a sampler taking source() every interval, keeping
// the most recent capacity samples (0 = 600 — ten minutes at the
// default one-second interval).
func NewSampler(interval time.Duration, capacity int, source func() map[string]float64) *Sampler {
	if capacity <= 0 {
		capacity = 600
	}
	return &Sampler{
		interval: interval,
		capacity: capacity,
		source:   source,
	}
}

// OnSample registers a hook run after each sample is recorded (the
// -progress heartbeat printer). Set it before Start.
func (s *Sampler) OnSample(f func(SamplePoint)) { s.onSample = f }

// Start launches the sampling goroutine (taking an immediate first
// sample) and returns. Calling Start twice panics.
func (s *Sampler) Start() {
	if s.stop != nil {
		panic("obs: Sampler started twice")
	}
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	go func() {
		defer close(s.done)
		s.SampleNow()
		t := time.NewTicker(s.interval)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.SampleNow()
			}
		}
	}()
}

// Stop halts the sampling goroutine and waits for it to exit. Safe to
// call once after Start; a never-started sampler is a no-op.
func (s *Sampler) Stop() {
	if s.stop == nil {
		return
	}
	close(s.stop)
	<-s.done
	s.stop = nil
}

// SampleNow takes one sample immediately (the ticker's step; tests
// call it directly).
func (s *Sampler) SampleNow() SamplePoint {
	sm := SamplePoint{Time: time.Now(), Values: s.source()}
	s.mu.Lock()
	if len(s.ring) < s.capacity {
		s.ring = append(s.ring, sm)
	} else {
		s.ring[s.next] = sm
		s.next = (s.next + 1) % s.capacity
		s.full = true
	}
	s.mu.Unlock()
	if s.onSample != nil {
		s.onSample(sm)
	}
	return sm
}

// Snapshot returns the buffered samples oldest-first.
func (s *Sampler) Snapshot() []SamplePoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.full {
		return append([]SamplePoint(nil), s.ring...)
	}
	out := make([]SamplePoint, 0, len(s.ring))
	out = append(out, s.ring[s.next:]...)
	out = append(out, s.ring[:s.next]...)
	return out
}

// WriteJSON writes the buffered time series as one JSON document:
//
//	{"interval_sec": 1, "samples": [{"t": ..., "values": {...}}, ...]}
//
// Values maps are emitted with sorted keys (encoding/json's map
// behavior), so dumps diff cleanly.
func (s *Sampler) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	doc := struct {
		IntervalSec float64       `json:"interval_sec"`
		Samples     []SamplePoint `json:"samples"`
	}{IntervalSec: s.interval.Seconds(), Samples: s.Snapshot()}
	if doc.Samples == nil {
		doc.Samples = []SamplePoint{}
	}
	enc := json.NewEncoder(bw)
	if err := enc.Encode(doc); err != nil {
		return err
	}
	return bw.Flush()
}

// RuntimeStats samples the Go runtime: goroutine count, heap in use,
// cumulative GC count and pause time. It reads runtime.MemStats
// without a stop-the-world (ReadMemStats is a brief STW in practice —
// at one sample per second the cost is noise).
func RuntimeStats() map[string]float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return map[string]float64{
		"go.goroutines":        float64(runtime.NumGoroutine()),
		"go.heap_inuse_bytes":  float64(ms.HeapInuse),
		"go.heap_alloc_bytes":  float64(ms.HeapAlloc),
		"go.gc_count":          float64(ms.NumGC),
		"go.gc_pause_total_ns": float64(ms.PauseTotalNs),
	}
}

// RegistrySource builds a sampler source that snapshots reg, keeps
// keys matching any of the given prefixes (none = all), and merges in
// RuntimeStats.
func RegistrySource(reg *Metrics, prefixes ...string) func() map[string]float64 {
	return func() map[string]float64 {
		out := RuntimeStats()
		for k, v := range reg.Snapshot() {
			if len(prefixes) > 0 && !hasAnyPrefix(k, prefixes) {
				continue
			}
			out[k] = v
		}
		return out
	}
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// SummarizeSamples reduces a sample trail to per-key min/mean/max/last
// — the obsreport timeseries view. Keys are returned sorted.
func SummarizeSamples(samples []SamplePoint) []SeriesSummary {
	agg := make(map[string]*SeriesSummary)
	for _, sm := range samples {
		for k, v := range sm.Values {
			a := agg[k]
			if a == nil {
				a = &SeriesSummary{Key: k, Min: v, Max: v}
				agg[k] = a
			}
			if v < a.Min {
				a.Min = v
			}
			if v > a.Max {
				a.Max = v
			}
			a.sum += v
			a.Count++
			a.Last = v
		}
	}
	keys := make([]string, 0, len(agg))
	for k := range agg {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]SeriesSummary, len(keys))
	for i, k := range keys {
		a := agg[k]
		a.Mean = a.sum / float64(a.Count)
		out[i] = *a
	}
	return out
}

// SeriesSummary is one key's aggregate over a sample trail.
type SeriesSummary struct {
	Key                  string
	Min, Mean, Max, Last float64
	Count                int
	sum                  float64
}
