package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	m := New()
	c := m.Counter("x")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("Value() = %d, want 42", got)
	}
	if m.Counter("x") != c {
		t.Fatal("second lookup returned a different handle")
	}
	if m.Counter("y") == c {
		t.Fatal("distinct names share a handle")
	}
}

func TestGauge(t *testing.T) {
	m := New()
	g := m.Gauge("g")
	if g.Value() != 0 {
		t.Fatalf("zero value = %v, want 0", g.Value())
	}
	g.Set(2.5)
	if g.Value() != 2.5 {
		t.Fatalf("after Set(2.5): %v", g.Value())
	}
	g.SetMax(1.0)
	if g.Value() != 2.5 {
		t.Fatalf("SetMax lowered the gauge: %v", g.Value())
	}
	g.SetMax(7.0)
	if g.Value() != 7.0 {
		t.Fatalf("SetMax(7) = %v", g.Value())
	}
	g.Set(-3)
	if g.Value() != -3 {
		t.Fatalf("Set(-3) = %v", g.Value())
	}
}

func TestTimer(t *testing.T) {
	m := New()
	tm := m.Timer("t")
	tm.Observe(100 * time.Millisecond)
	tm.Observe(150 * time.Millisecond)
	if tm.Count() != 2 {
		t.Fatalf("Count() = %d, want 2", tm.Count())
	}
	if tm.Total() != 250*time.Millisecond {
		t.Fatalf("Total() = %v, want 250ms", tm.Total())
	}
}

func TestSnapshot(t *testing.T) {
	m := New()
	m.Counter("apps").Add(7)
	m.Set("peak", 123)
	m.Timer("solve").Observe(2 * time.Second)
	got := m.Snapshot()
	want := map[string]float64{
		"apps":        7,
		"peak":        123,
		"solve.count": 1,
		"solve.sec":   2,
	}
	if len(got) != len(want) {
		t.Fatalf("Snapshot() = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("Snapshot()[%q] = %v, want %v", k, got[k], v)
		}
	}
}

// TestMerge: merging two registries into a third adds counters,
// timer counts and totals and histogram buckets, and keeps the last
// value of each gauge.
func TestMerge(t *testing.T) {
	dst := New()
	for i, v := range []float64{3, 5} {
		src := New()
		src.Counter("apps").Add(int64(i + 1))
		src.Set("peak", v)
		src.Timer("solve").Observe(time.Duration(i+1) * time.Second)
		src.Histogram("lat", []float64{1, 2}).Observe(v / 2)
		dst.Merge(src)
	}
	got := dst.Snapshot()
	for k, v := range map[string]float64{"apps": 3, "peak": 5, "solve.count": 2, "solve.sec": 3, "lat.count": 2, "lat.sum": 4} {
		if got[k] != v {
			t.Errorf("merged %q = %v, want %v", k, got[k], v)
		}
	}
	if b := dst.Histogram("lat", nil).BucketCounts(); b[0] != 0 || b[1] != 1 || b[2] != 1 {
		t.Errorf("merged buckets %v, want [0 1 1]", b)
	}
}

// TestConcurrentUpdates hammers one registry from many goroutines; run
// under -race this is the data-race check for the atomic handles and
// the registration mutex.
func TestConcurrentUpdates(t *testing.T) {
	m := New()
	const workers = 8
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				m.Counter("shared").Inc()
				m.Gauge("high").SetMax(float64(i))
				m.Timer("work").Observe(time.Microsecond)
				m.Counter("mine").Add(2)
			}
		}()
	}
	wg.Wait()
	if got := m.Counter("shared").Value(); got != workers*perWorker {
		t.Errorf("shared = %d, want %d", got, workers*perWorker)
	}
	if got := m.Counter("mine").Value(); got != 2*workers*perWorker {
		t.Errorf("mine = %d, want %d", got, 2*workers*perWorker)
	}
	if got := m.Gauge("high").Value(); got != perWorker-1 {
		t.Errorf("high = %v, want %d", got, perWorker-1)
	}
	if got := m.Timer("work").Count(); got != workers*perWorker {
		t.Errorf("work.count = %d, want %d", got, workers*perWorker)
	}
}

func TestWriteJSON(t *testing.T) {
	m := New()
	m.Counter("b.count").Add(3)
	m.Set("a.ratio", 0.5)
	m.Set("nan", math.NaN())
	m.Set("inf", math.Inf(1))
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf, "unit"); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Name    string             `json:"name"`
		Metrics map[string]float64 `json:"metrics"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.Name != "unit" {
		t.Errorf("name = %q", doc.Name)
	}
	if doc.Metrics["b.count"] != 3 || doc.Metrics["a.ratio"] != 0.5 {
		t.Errorf("metrics = %v", doc.Metrics)
	}
	// Non-finite values must be clamped, not emitted as invalid JSON.
	if doc.Metrics["nan"] != 0 || doc.Metrics["inf"] != 0 {
		t.Errorf("non-finite values not clamped: %v", doc.Metrics)
	}
	// Keys are sorted: "a.ratio" is written before "b.count".
	s := buf.String()
	if strings.Index(s, "a.ratio") > strings.Index(s, "b.count") {
		t.Errorf("keys not sorted:\n%s", s)
	}
}
