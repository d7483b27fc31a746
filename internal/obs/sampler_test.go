package obs

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSamplerRingBounds(t *testing.T) {
	var n atomic.Int64
	s := NewSampler(time.Hour, 3, func() map[string]float64 {
		return map[string]float64{"seq": float64(n.Add(1))}
	})
	for i := 0; i < 5; i++ {
		s.SampleNow()
	}
	snap := s.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("ring kept %d samples, want 3", len(snap))
	}
	// Oldest-first: the 5 samples were seq 1..5, ring keeps 3..5.
	for i, want := range []float64{3, 4, 5} {
		if got := snap[i].Values["seq"]; got != want {
			t.Errorf("snapshot[%d].seq = %g, want %g", i, got, want)
		}
	}
}

func TestSamplerStartStop(t *testing.T) {
	var n atomic.Int64
	s := NewSampler(5*time.Millisecond, 10, func() map[string]float64 {
		n.Add(1)
		return map[string]float64{"x": 1}
	})
	var hooks atomic.Int64
	s.OnSample(func(SamplePoint) { hooks.Add(1) })
	s.Start()
	// Start takes an immediate sample; wait for at least one more tick.
	deadline := time.Now().Add(2 * time.Second)
	for n.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	s.Stop()
	if n.Load() < 2 {
		t.Fatalf("source ran %d times, want >= 2", n.Load())
	}
	if hooks.Load() != n.Load() {
		t.Errorf("OnSample ran %d times for %d samples", hooks.Load(), n.Load())
	}
	after := n.Load()
	time.Sleep(20 * time.Millisecond)
	if n.Load() != after {
		t.Errorf("sampler kept running after Stop")
	}
	// A never-started sampler's Stop is a no-op.
	NewSampler(time.Hour, 1, func() map[string]float64 { return nil }).Stop()
}

func TestSamplerWriteJSON(t *testing.T) {
	s := NewSampler(2*time.Second, 4, func() map[string]float64 {
		return map[string]float64{"go.goroutines": 7}
	})
	s.SampleNow()
	var sb strings.Builder
	if err := s.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{`"interval_sec":2`, `"samples":[`, `"go.goroutines":7`} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %s:\n%s", want, out)
		}
	}
	// Round-trips through the obsreport reader.
	interval, samples, err := ReadTimeseries(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if interval != 2 || len(samples) != 1 || samples[0].Values["go.goroutines"] != 7 {
		t.Errorf("round-trip: interval=%g samples=%v", interval, samples)
	}
}

func TestSamplerWriteJSONEmpty(t *testing.T) {
	s := NewSampler(time.Second, 1, func() map[string]float64 { return nil })
	var sb strings.Builder
	if err := s.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"samples":[]`) {
		t.Errorf("empty dump should have an empty array, got %s", sb.String())
	}
}

func TestRuntimeStats(t *testing.T) {
	rt := RuntimeStats()
	if rt["go.goroutines"] < 1 {
		t.Errorf("go.goroutines = %g", rt["go.goroutines"])
	}
	if rt["go.heap_alloc_bytes"] <= 0 {
		t.Errorf("go.heap_alloc_bytes = %g", rt["go.heap_alloc_bytes"])
	}
}

func TestRegistrySource(t *testing.T) {
	reg := New()
	reg.Counter("serve.cache.hits").Add(4)
	reg.Counter("datalog.iterations").Add(9)
	src := RegistrySource(reg, "serve.")
	vals := src()
	if vals["serve.cache.hits"] != 4 {
		t.Errorf("serve.cache.hits = %g, want 4", vals["serve.cache.hits"])
	}
	if _, ok := vals["datalog.iterations"]; ok {
		t.Errorf("prefix filter leaked datalog.iterations")
	}
	if _, ok := vals["go.goroutines"]; !ok {
		t.Errorf("runtime stats not merged")
	}
}

func TestSummarizeSamples(t *testing.T) {
	samples := []SamplePoint{
		{Values: map[string]float64{"a": 1, "b": 10}},
		{Values: map[string]float64{"a": 3, "b": 20}},
		{Values: map[string]float64{"a": 2}},
	}
	sums := SummarizeSamples(samples)
	if len(sums) != 2 || sums[0].Key != "a" || sums[1].Key != "b" {
		t.Fatalf("keys: %+v", sums)
	}
	a := sums[0]
	if a.Min != 1 || a.Max != 3 || a.Mean != 2 || a.Last != 2 || a.Count != 3 {
		t.Errorf("a summary: %+v", a)
	}
}

func TestProgressTracer(t *testing.T) {
	p := NewProgress()
	p.Begin("solve strata")
	p.Begin("stratum 2")
	p.Begin("iteration 5")
	p.Begin("rule 003: vP")
	p.Begin("rule 004: hP")
	p.Begin("op.relprod")
	p.Counter("bdd.live_nodes", map[string]float64{"live": 1234, "table": 8192})
	v := p.Values()
	if v["progress.stratum"] != 2 {
		t.Errorf("stratum = %g, want 2", v["progress.stratum"])
	}
	if v["progress.iteration"] != 5 {
		t.Errorf("iteration = %g, want 5", v["progress.iteration"])
	}
	if v["progress.rule_apps"] != 2 {
		t.Errorf("rule_apps = %g, want 2", v["progress.rule_apps"])
	}
	if v["progress.bdd_live_nodes"] != 1234 {
		t.Errorf("live nodes = %g, want 1234", v["progress.bdd_live_nodes"])
	}
	hb := p.Heartbeat()
	for _, want := range []string{"progress: solve strata ", "stratum=2", "iter=5", "rule-apps=2", "live-nodes@gc/grow=1234", "elapsed="} {
		if !strings.Contains(hb, want) {
			t.Errorf("heartbeat missing %q: %s", want, hb)
		}
	}
	// An arena growth between GCs sends the next sample: every slot
	// of the old table is live, so live equals its size.
	p.Instant("bdd.grow", A("from", 8192), A("to", 16384))
	p.Counter("bdd.live_nodes", map[string]float64{"live": 8192, "table": 16384})
	if v := p.Values()["progress.bdd_live_nodes"]; v != 8192 {
		t.Errorf("live nodes after grow = %g, want 8192", v)
	}
	if hb := p.Heartbeat(); !strings.Contains(hb, "live-nodes@gc/grow=8192") {
		t.Errorf("heartbeat after grow: %s", hb)
	}
	// Ending a coarse phase's span restores the enclosing phase, while
	// rule, op, stratum, iteration and GC spans closing inside a phase
	// leave it current.
	t.Run("nesting", testProgressPhaseNesting)
}

func testProgressPhaseNesting(t *testing.T) {
	p := NewProgress()
	phase := func(want string) {
		t.Helper()
		if hb := p.Heartbeat(); !strings.HasPrefix(hb, "progress: "+want+" ") {
			t.Errorf("heartbeat = %q, want phase %q", hb, want)
		}
	}
	phase("startup")
	p.Begin("datalog.solve")
	p.Begin("datalog.facts")
	phase("datalog.facts")
	p.End() // datalog.facts
	phase("datalog.solve")
	p.Begin("stratum 0")
	p.Begin("iteration 1")
	p.Begin("rule 2: vP")
	p.Begin("op.relprod")
	p.End()
	p.End()
	p.Begin("bdd.gc")
	p.End()
	phase("datalog.solve")
	p.Begin("callgraph.number") // a phase nested inside fine spans
	p.Begin("rule 3: IE")
	p.End()
	phase("callgraph.number")
	p.End() // callgraph.number
	phase("datalog.solve")
	p.End() // iteration 1
	p.End() // stratum 0
	phase("datalog.solve")
	p.End() // datalog.solve
	phase("startup")
	if got := p.Values()["progress.rule_apps"]; got != 2 {
		t.Errorf("rule_apps = %g, want 2", got)
	}
}

func TestStartHeartbeat(t *testing.T) {
	p := NewProgress()
	var sb syncBuilder
	s := StartHeartbeat(p, &sb, 5*time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for sb.Len() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	s.Stop()
	if !strings.Contains(sb.String(), "progress:") {
		t.Errorf("no heartbeat printed: %q", sb.String())
	}
}

// syncBuilder is a strings.Builder safe for the sampler goroutine +
// test goroutine.
type syncBuilder struct {
	mu sync.Mutex
	sb strings.Builder
}

func (b *syncBuilder) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.Write(p)
}

func (b *syncBuilder) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.Len()
}

func (b *syncBuilder) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.String()
}
