package obs

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

func floatBits(f float64) uint64 { return math.Float64bits(f) }
func floatFrom(b uint64) float64 { return math.Float64frombits(b) }

// Histogram is a fixed-bucket, lock-free latency/size distribution.
// Bucket bounds are chosen at construction (exponential in practice);
// Observe is two atomic adds plus a binary search over a couple dozen
// bounds, so recording stays cheap enough for per-request and per-op
// hot paths. Quantiles are estimated from the bucket counts by linear
// interpolation inside the winning bucket, so their error is bounded
// by one bucket's width — the exponential schemes below keep that
// within a factor of the bucket growth rate, which is what latency
// monitoring needs (the paper's performance story lives in
// distributions and hit ratios, not totals).
//
// All methods are safe for concurrent use. Count and Sum are updated
// by separate atomics, so a reader racing a writer can observe one
// without the other; once writers quiesce the totals are exact (the
// concurrency hammer test pins this down).
type Histogram struct {
	bounds []float64 // strictly increasing upper bounds
	counts []atomic.Int64
	over   atomic.Int64 // observations above the last bound
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-add
}

// ExpBuckets returns n exponentially growing upper bounds starting at
// start: start, start*factor, start*factor², …
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LatencyBuckets is the default bound scheme for durations in seconds:
// 1µs up to ~8.4s in ×2 steps (24 buckets + overflow).
func LatencyBuckets() []float64 { return ExpBuckets(1e-6, 2, 24) }

// SizeBuckets is the default bound scheme for counts (BDD nodes,
// tuples, bytes): 1 up to ~10⁹ in ×4 steps (16 buckets + overflow).
func SizeBuckets() []float64 { return ExpBuckets(1, 4, 16) }

// NewHistogram builds a histogram over the given upper bounds, which
// must be strictly increasing. Nil bounds pick LatencyBuckets.
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = LatencyBuckets()
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly increasing")
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)),
	}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	if i < len(h.bounds) {
		h.counts[i].Add(1)
	} else {
		h.over.Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, floatBits(floatFrom(old)+v)) {
			return
		}
	}
}

// merge adds o's observations. Each of o's buckets lands in the first
// bucket of h whose bound is at least its own, which is exact when the
// bounds agree.
func (h *Histogram) merge(o *Histogram) {
	counts := o.BucketCounts()
	for i, c := range counts[:len(o.bounds)] {
		if j := sort.SearchFloat64s(h.bounds, o.bounds[i]); j < len(h.bounds) {
			h.counts[j].Add(c)
		} else {
			h.over.Add(c)
		}
	}
	h.over.Add(counts[len(o.bounds)])
	h.count.Add(o.Count())
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, floatBits(floatFrom(old)+o.Sum())) {
			return
		}
	}
}

// ObserveDuration records a duration sample in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the total of all observed values.
func (h *Histogram) Sum() float64 { return floatFrom(h.sum.Load()) }

// Bounds returns the bucket upper bounds (shared; do not mutate).
func (h *Histogram) Bounds() []float64 { return h.bounds }

// BucketCounts returns a snapshot of per-bucket counts; the extra last
// element is the overflow bucket (observations above the final bound).
func (h *Histogram) BucketCounts() []int64 {
	out := make([]int64, len(h.counts)+1)
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	out[len(h.counts)] = h.over.Load()
	return out
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by linear
// interpolation within the bucket holding the target rank. Returns 0
// with no observations; samples above the last bound clamp to it.
func (h *Histogram) Quantile(q float64) float64 {
	counts := h.BucketCounts()
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= rank {
			if i == len(h.bounds) {
				return h.bounds[len(h.bounds)-1] // overflow clamps
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			frac := (rank - cum) / float64(c)
			if frac < 0 {
				frac = 0
			}
			return lo + (hi-lo)*frac
		}
		cum = next
	}
	return h.bounds[len(h.bounds)-1]
}

// addTo flattens the histogram's derived statistics under its name —
// the keys the flat metrics JSON and BENCH_*.json files carry.
func (h *Histogram) addTo(name string, out map[string]float64) {
	out[name+".count"] = float64(h.Count())
	out[name+".sum"] = h.Sum()
	out[name+".p50"] = h.Quantile(0.50)
	out[name+".p95"] = h.Quantile(0.95)
	out[name+".p99"] = h.Quantile(0.99)
}
