package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Progress is a Tracer that distills span traffic into a handful of
// live atomic gauges — which phase is running, the current stratum and
// iteration, rule applications so far, BDD live nodes at the last GC or
// arena growth — without buffering anything. A Sampler reads it
// periodically and prints the batch commands' -progress heartbeat, so
// a multi-minute context-sensitive solve shows a
// per-stratum/iteration pulse on stderr instead of silence.
//
// Any span that is not a rule, op, stratum, iteration or GC span is a
// coarse phase. Phases nest: when a phase's span ends, the heartbeat
// reports the enclosing phase again. A rule or op span costs one
// prefix check and one atomic add on Begin, and one atomic add on End.
type Progress struct {
	start time.Time
	// spans packs three counters into one word so that fine spans cost
	// one atomic add: bits 0–15 count the open spans, bits 16–31 hold
	// that count just after the innermost phase began (0 = no phase),
	// and the high bits count rule applications. End does not name
	// the span it closes; the open count identifies a closing phase.
	spans     atomic.Int64
	stratum   atomic.Int64 // +1, 0 = none seen yet
	iteration atomic.Int64
	liveNodes atomic.Int64

	mu     sync.Mutex
	phases []phaseMark // open coarse phases, innermost last
}

// phaseMark is an open phase and the open-span count just after it
// began.
type phaseMark struct {
	name  string
	depth int64
}

const (
	depthBits = 16
	depthMask = 1<<depthBits - 1
	appsShift = 2 * depthBits
)

// NewProgress returns a Progress tracer with the clock started.
func NewProgress() *Progress { return &Progress{start: time.Now()} }

// Begin implements Tracer.
func (p *Progress) Begin(name string, args ...Arg) {
	switch {
	case strings.HasPrefix(name, "rule "):
		p.spans.Add(1<<appsShift | 1)
		return
	case strings.HasPrefix(name, "op."), name == "bdd.gc":
		// Too fine for a heartbeat; GC's live count arrives as a
		// Counter sample.
	case strings.HasPrefix(name, "stratum "):
		p.stratum.Store(parseTrailingInt(name) + 1)
		p.iteration.Store(0)
	case strings.HasPrefix(name, "iteration "):
		p.iteration.Store(parseTrailingInt(name))
	default:
		p.mu.Lock()
		depth := p.spans.Add(1) & depthMask
		p.phases = append(p.phases, phaseMark{name: name, depth: depth})
		p.setPhaseDepth(depth)
		p.mu.Unlock()
		return
	}
	p.spans.Add(1)
}

// End implements Tracer. An open count below the innermost phase's
// mark means that phase's span closed: the enclosing one is current.
func (p *Progress) End(args ...Arg) {
	v := p.spans.Add(-1)
	if v&depthMask >= v>>depthBits&depthMask {
		return
	}
	p.mu.Lock()
	if n := len(p.phases); n > 0 {
		p.phases = p.phases[:n-1]
		var depth int64
		if n > 1 {
			depth = p.phases[n-2].depth
		}
		p.setPhaseDepth(depth)
	}
	p.mu.Unlock()
}

// setPhaseDepth stores the innermost phase's mark in spans, keeping
// the counts concurrent adds left there. p.mu is held.
func (p *Progress) setPhaseDepth(depth int64) {
	for {
		old := p.spans.Load()
		if p.spans.CompareAndSwap(old, old&^(depthMask<<depthBits)|depth<<depthBits) {
			return
		}
	}
}

// Instant implements Tracer.
func (p *Progress) Instant(name string, args ...Arg) {}

// Counter implements Tracer; the BDD manager's live-node samples, sent
// at every GC and arena growth, keep the heartbeat's memory column
// current.
func (p *Progress) Counter(name string, values map[string]float64) {
	if name == "bdd.live_nodes" {
		if v, ok := values["live"]; ok {
			p.liveNodes.Store(int64(v))
		}
	}
}

func parseTrailingInt(name string) int64 {
	i := strings.LastIndexByte(name, ' ')
	if i < 0 {
		return 0
	}
	var n int64
	for _, r := range name[i+1:] {
		if r < '0' || r > '9' {
			return n
		}
		n = n*10 + int64(r-'0')
	}
	return n
}

// Values reports the current progress state as sampler series
// (progress.* keys).
func (p *Progress) Values() map[string]float64 {
	return map[string]float64{
		"progress.rule_apps":      float64(p.spans.Load() >> appsShift),
		"progress.stratum":        float64(p.stratum.Load() - 1),
		"progress.iteration":      float64(p.iteration.Load()),
		"progress.bdd_live_nodes": float64(p.liveNodes.Load()),
	}
}

// Heartbeat formats one -progress line: phase, stratum/iteration
// position, work counters, and memory.
func (p *Progress) Heartbeat() string {
	p.mu.Lock()
	phase := "startup"
	if n := len(p.phases); n > 0 {
		phase = p.phases[n-1].name
	}
	p.mu.Unlock()
	var sb strings.Builder
	fmt.Fprintf(&sb, "progress: %s", phase)
	if st := p.stratum.Load(); st > 0 {
		fmt.Fprintf(&sb, " stratum=%d", st-1)
		fmt.Fprintf(&sb, " iter=%d", p.iteration.Load())
	}
	fmt.Fprintf(&sb, " rule-apps=%d", p.spans.Load()>>appsShift)
	// The BDD manager reports live nodes only at a GC or an arena
	// growth, so the value is labeled as that sample, not as the
	// current count.
	if live := p.liveNodes.Load(); live > 0 {
		fmt.Fprintf(&sb, " live-nodes@gc/grow=%d", live)
	}
	rt := RuntimeStats()
	fmt.Fprintf(&sb, " heap=%.0fMB elapsed=%s",
		rt["go.heap_inuse_bytes"]/(1<<20),
		time.Since(p.start).Round(time.Second))
	return sb.String()
}

// StartHeartbeat wires a Progress tracer to a Sampler printing one
// heartbeat line per interval to w. The caller owns the returned
// sampler's lifetime (Stop it when the run finishes).
func StartHeartbeat(p *Progress, w io.Writer, interval time.Duration) *Sampler {
	s := NewSampler(interval, 0, func() map[string]float64 {
		out := RuntimeStats()
		for k, v := range p.Values() {
			out[k] = v
		}
		return out
	})
	s.OnSample(func(SamplePoint) { fmt.Fprintln(w, p.Heartbeat()) })
	s.Start()
	return s
}
