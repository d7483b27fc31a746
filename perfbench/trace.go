package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"bddbddb/internal/obs"
)

// recorder is the benchmark's obs.Tracer: it keeps spans in memory and
// folds them into per-name totals when they close. Self time is a
// span's duration minus the time its direct children cover. Instants
// and counter samples are ignored.
//
// The recorder keeps one span stack, so it is only right while every
// Begin and End between an empty stack and the next comes from one
// goroutine. It counts the calls that break this (interleaved); a run
// with any fails its checks rather than print a garbled split.
//
// Two sets of totals are kept: all (every span of the run, for the
// layer table) and window (spans closed since the last mark, for the
// per-layer metrics, so those cover the same solves as the counters).
// Spans nested under a span named skip stay out of the window.
type recorder struct {
	mu          sync.Mutex
	open        []openSpan
	owner       uint64 // goroutine that opened open[0]
	interleaved int
	topLevel    time.Duration // summed duration of closed bottom spans
	all, window map[string]*spanTotal
	skip        string
}

type openSpan struct {
	name     string
	begin    time.Time
	children time.Duration
	skipped  bool // inside a span named skip
}

type spanTotal struct {
	calls      int
	total, own time.Duration
}

func newRecorder() *recorder {
	return &recorder{all: make(map[string]*spanTotal), window: make(map[string]*spanTotal)}
}

// goid returns the calling goroutine's id, parsed from the first line
// of its stack trace ("goroutine 7 [running]:").
func goid() uint64 {
	var buf [64]byte
	b := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return id
}

func (r *recorder) Begin(name string, _ ...obs.Arg) {
	g := goid()
	r.mu.Lock()
	defer r.mu.Unlock()
	sp := openSpan{name: name, begin: time.Now()}
	if n := len(r.open); n == 0 {
		r.owner = g
	} else {
		if g != r.owner {
			r.interleaved++
		}
		sp.skipped = r.open[n-1].skipped || r.open[n-1].name == r.skip
	}
	r.open = append(r.open, sp)
}

func (r *recorder) End(_ ...obs.Arg) {
	g := goid()
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.open)
	if n == 0 {
		return
	}
	if g != r.owner {
		r.interleaved++
	}
	sp := r.open[n-1]
	r.open = r.open[:n-1]
	d := time.Since(sp.begin)
	if n > 1 {
		r.open[n-2].children += d
	} else {
		r.topLevel += d
	}
	r.add(r.all, sp.name, d, d-sp.children)
	if !sp.skipped {
		r.add(r.window, sp.name, d, d-sp.children)
	}
}

func (r *recorder) add(m map[string]*spanTotal, name string, total, own time.Duration) {
	t := m[name]
	if t == nil {
		t = &spanTotal{}
		m[name] = t
	}
	t.calls++
	t.total += total
	t.own += own
}

func (r *recorder) Instant(string, ...obs.Arg)         {}
func (r *recorder) Counter(string, map[string]float64) {}

// mark empties the window: the per-layer span metrics then cover only
// spans that close after it. Spans nested under one named skip (when
// not empty) stay out of the window.
func (r *recorder) mark(skip string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.window = make(map[string]*spanTotal)
	r.skip = skip
}

// closedTopLevel returns the summed duration of every bottom-of-stack
// span closed so far.
func (r *recorder) closedTopLevel() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.topLevel
}

// record adds a finished top-level span of duration d that ran beside
// the recorder rather than on its stack (the query phase, whose update
// handlers emit spans from other goroutines). Its children are the
// top-level spans that closed while it ran (inner).
func (r *recorder) record(name string, d, inner time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.topLevel += d - inner
	r.add(r.all, name, d, d-inner)
}

// interleavedCalls counts the Begin and End calls that came from
// another goroutine than the one owning the open stack.
func (r *recorder) interleavedCalls() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.interleaved
}

// total returns the summed inclusive duration of the named spans in
// the window.
func (r *recorder) total(name string) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	if t := r.window[name]; t != nil {
		return t.total
	}
	return 0
}

// own returns the summed self time and count of the named spans in the
// window.
func (r *recorder) own(name string) (time.Duration, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if t := r.window[name]; t != nil {
		return t.own, t.calls
	}
	return 0, 0
}

// opCalls counts the spans of every op.* kind in the window.
func (r *recorder) opCalls() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for name, t := range r.window {
		if strings.HasPrefix(name, "op.") {
			n += t.calls
		}
	}
	return n
}

// layerOf maps a span name to the repository module that emitted it
// (program spans) or whose public function it wraps (benchmark spans).
func layerOf(name string) string {
	switch {
	case strings.HasPrefix(name, "gofront."), strings.HasPrefix(name, "synth."):
		return "frontend"
	case strings.HasPrefix(name, "op."), strings.HasPrefix(name, "rule "),
		strings.HasPrefix(name, "stratum "), strings.HasPrefix(name, "iteration "):
		return "datalog"
	case strings.HasPrefix(name, "Snapshot."):
		return "serve"
	}
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// writeLayerTable prints layer, calls, self seconds and share of wall.
func (r *recorder) writeLayerTable(w io.Writer, workload string, wall time.Duration) {
	type row struct {
		layer string
		calls int
		own   time.Duration
	}
	r.mu.Lock()
	byLayer := make(map[string]*row)
	for name, t := range r.all {
		l := layerOf(name)
		if byLayer[l] == nil {
			byLayer[l] = &row{layer: l}
		}
		byLayer[l].calls += t.calls
		byLayer[l].own += t.own
	}
	r.mu.Unlock()
	rows := make([]*row, 0, len(byLayer))
	var covered time.Duration
	for _, rw := range byLayer {
		rows = append(rows, rw)
		covered += rw.own
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].own > rows[j].own })
	fmt.Fprintf(w, "layer table (%s, traced, wall %.2fs)\n", workload, wall.Seconds())
	fmt.Fprintf(w, "  %-10s %9s %10s %7s\n", "layer", "calls", "self_s", "share")
	for _, rw := range rows {
		fmt.Fprintf(w, "  %-10s %9d %10.3f %6.1f%%\n", rw.layer, rw.calls, rw.own.Seconds(), 100*rw.own.Seconds()/wall.Seconds())
	}
	other := wall - covered
	fmt.Fprintf(w, "  %-10s %9s %10.3f %6.1f%%\n", "(untraced)", "-", other.Seconds(), 100*other.Seconds()/wall.Seconds())
}

// span wraps one call into a layer's public function in a benchmark
// span (when tracing) and returns its wall time.
func span(tr *recorder, name string, f func() error) (time.Duration, error) {
	if tr != nil {
		tr.Begin(name)
	}
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	if tr != nil {
		tr.End()
	}
	return d, err
}
