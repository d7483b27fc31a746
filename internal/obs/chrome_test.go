package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// chromeEventJSON mirrors one trace event for decoding in tests.
type chromeEventJSON struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

func decodeTrace(t *testing.T, buf []byte) []chromeEventJSON {
	t.Helper()
	var doc struct {
		DisplayTimeUnit string            `json:"displayTimeUnit"`
		TraceEvents     []chromeEventJSON `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	return doc.TraceEvents
}

// fakeClock returns a clock that advances 100µs per reading.
func fakeClock() func() time.Duration {
	var ticks int64
	return func() time.Duration {
		ticks++
		return time.Duration(ticks) * 100 * time.Microsecond
	}
}

func TestChromeTraceNesting(t *testing.T) {
	tr := NewChromeTraceClock(fakeClock())
	tr.Begin("outer", A("k", 1))
	tr.Begin("inner")
	tr.Instant("tick")
	tr.End(A("n", 2))
	tr.Counter("live", map[string]float64{"nodes": 10, "cap": 64})
	tr.End()
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	evs := decodeTrace(t, buf.Bytes())
	var got []string
	for _, e := range evs {
		got = append(got, e.Ph+":"+e.Name)
	}
	want := []string{"B:outer", "B:inner", "i:tick", "E:inner", "C:live", "E:outer"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("events = %v, want %v", got, want)
	}
	// Timestamps are monotonic.
	for i := 1; i < len(evs); i++ {
		if evs[i].Ts < evs[i-1].Ts {
			t.Fatalf("timestamps not monotonic: %d then %d", evs[i-1].Ts, evs[i].Ts)
		}
	}
	// End args land on the closing event of the matching span.
	if evs[3].Args["n"] != float64(2) {
		t.Errorf("inner End args = %v", evs[3].Args)
	}
	if evs[0].Args["k"] != float64(1) {
		t.Errorf("outer Begin args = %v", evs[0].Args)
	}
	if evs[4].Args["nodes"] != float64(10) || evs[4].Args["cap"] != float64(64) {
		t.Errorf("counter args = %v", evs[4].Args)
	}
}

func TestChromeTraceClosesOpenSpans(t *testing.T) {
	tr := NewChromeTraceClock(fakeClock())
	tr.Begin("a")
	tr.Begin("b")
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	evs := decodeTrace(t, buf.Bytes())
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4 (2 B + 2 synthesized E)", len(evs))
	}
	// Innermost closes first.
	if evs[2].Ph != "E" || evs[2].Name != "b" || evs[3].Ph != "E" || evs[3].Name != "a" {
		t.Fatalf("synthesized closes wrong: %+v", evs[2:])
	}
}

func TestChromeTraceUnmatchedEnd(t *testing.T) {
	tr := NewChromeTraceClock(fakeClock())
	tr.End() // no open span: dropped, not a panic
	tr.Begin("a")
	tr.End()
	tr.End() // extra: dropped
	if got := tr.Len(); got != 2 {
		t.Fatalf("Len() = %d, want 2", got)
	}
}

func TestChromeTraceDeterministic(t *testing.T) {
	render := func() string {
		tr := NewChromeTraceClock(fakeClock())
		tr.Begin("solve", A("rules", 3))
		tr.Counter("live", map[string]float64{"b": 2, "a": 1})
		tr.End()
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if a, b := render(), render(); a != b {
		t.Fatalf("same clock produced different traces:\n%s\n---\n%s", a, b)
	}
}

func TestMulti(t *testing.T) {
	if Multi() != nil {
		t.Error("Multi() should be nil")
	}
	if Multi(nil, nil) != nil {
		t.Error("Multi(nil, nil) should be nil")
	}
	a := NewChromeTraceClock(fakeClock())
	if Multi(nil, a) != Tracer(a) {
		t.Error("Multi(nil, a) should collapse to a")
	}
	b := NewChromeTraceClock(fakeClock())
	m := Multi(a, b)
	m.Begin("x")
	m.End()
	if a.Len() != 2 || b.Len() != 2 {
		t.Errorf("fan-out missed a sink: a=%d b=%d", a.Len(), b.Len())
	}
}

func TestNilHelpers(t *testing.T) {
	// Must not panic.
	Begin(nil, "x")
	End(nil)
	Instant(nil, "x")
	Sample(nil, "x", nil)
}
