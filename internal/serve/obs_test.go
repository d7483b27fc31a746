package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuf is a goroutine-safe buffer for capturing the access log.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// waitFor polls until cond returns true (the access-log line lands
// after the response body is flushed, so tests can't read it
// immediately).
func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestMetricsContentNegotiation(t *testing.T) {
	_, hs := testServer(t, Config{Replicas: 1})
	cases := []struct {
		name   string
		url    string
		accept string
		prom   bool
		cType  string
	}{
		{"default json", "/metrics", "", false, "application/json"},
		{"format=prom", "/metrics?format=prom", "", true, "text/plain; version=0.0.4; charset=utf-8"},
		{"format=prometheus", "/metrics?format=prometheus", "", true, "text/plain; version=0.0.4; charset=utf-8"},
		{"accept text/plain", "/metrics", "text/plain", true, "text/plain; version=0.0.4; charset=utf-8"},
		{"accept json", "/metrics", "application/json", false, "application/json"},
		{"format=json overrides accept", "/metrics?format=json", "text/plain", false, "application/json"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, _ := http.NewRequest("GET", hs.URL+tc.url, nil)
			if tc.accept != "" {
				req.Header.Set("Accept", tc.accept)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var body bytes.Buffer
			body.ReadFrom(resp.Body)
			if got := resp.Header.Get("Content-Type"); got != tc.cType {
				t.Errorf("Content-Type = %q, want %q", got, tc.cType)
			}
			if tc.prom {
				out := body.String()
				for _, want := range []string{
					"# TYPE serve_requests counter",
					"# TYPE serve_query summary",
					"serve_query_sum ",
					"serve_query_count ",
					"bddbddbd_build_info{",
					`snapshot_fingerprint="`,
				} {
					if !strings.Contains(out, want) {
						t.Errorf("prometheus exposition missing %q:\n%s", want, out)
					}
				}
			} else {
				var doc struct {
					Name    string             `json:"name"`
					Metrics map[string]float64 `json:"metrics"`
				}
				if err := json.Unmarshal(body.Bytes(), &doc); err != nil {
					t.Fatalf("JSON body did not parse: %v", err)
				}
				if doc.Name != "bddbddbd" || doc.Metrics == nil {
					t.Errorf("unexpected JSON doc: %+v", doc)
				}
			}
		})
	}
}

// TestMetricsPrometheusHistogram: after a served query, the exposition
// carries the latency histogram family with cumulative buckets.
func TestMetricsPrometheusHistogram(t *testing.T) {
	_, hs := testServer(t, Config{Replicas: 1})
	if code, _, _ := get(t, hs.URL+"/pointsto?var=v0"); code != 200 {
		t.Fatalf("query status %d", code)
	}
	_, body, _ := get(t, hs.URL+"/metrics?format=prom")
	if !strings.Contains(body, "# TYPE serve_latency_pointsto_ci_miss histogram") {
		t.Fatalf("missing latency histogram family:\n%s", body)
	}
	// Cumulative buckets: counts never decrease and end at _count.
	re := regexp.MustCompile(`serve_latency_pointsto_ci_miss_bucket\{le="[^"]+"\} (\d+)`)
	var last, n int
	for _, m := range re.FindAllStringSubmatch(body, -1) {
		v, err := strconv.Atoi(m[1])
		if err != nil {
			t.Fatal(err)
		}
		if v < last {
			t.Fatalf("bucket counts not cumulative: %d after %d\n%s", v, last, body)
		}
		last = v
		n++
	}
	if n < 2 {
		t.Fatalf("expected multiple buckets, found %d", n)
	}
	if !strings.Contains(body, "serve_latency_pointsto_ci_miss_count 1") {
		t.Errorf("histogram count missing:\n%s", body)
	}
}

func TestRequestIDEchoAndGeneration(t *testing.T) {
	_, hs := testServer(t, Config{Replicas: 1})

	// Client-supplied ID is honored and echoed.
	req, _ := http.NewRequest("GET", hs.URL+"/pointsto?var=v0", nil)
	req.Header.Set("X-Request-Id", "my-trace-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "my-trace-42" {
		t.Errorf("echoed ID = %q, want my-trace-42", got)
	}

	// No ID → a fresh 16-hex-digit one.
	_, _, hdr := get(t, hs.URL+"/pointsto?var=v0")
	rid := hdr.Get("X-Request-Id")
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(rid) {
		t.Errorf("generated ID = %q, want 16 hex digits", rid)
	}

	// Error bodies carry the request ID.
	req2, _ := http.NewRequest("GET", hs.URL+"/pointsto?var=no-such-var", nil)
	req2.Header.Set("X-Request-Id", "err-trace")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var e struct {
		Class     string `json:"class"`
		RequestID string `json:"request_id"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != 422 || e.RequestID != "err-trace" {
		t.Errorf("status %d, error body %+v; want 422 with request_id err-trace", resp2.StatusCode, e)
	}
}

func TestSanitizeRequestID(t *testing.T) {
	cases := map[string]string{
		"ok-id_123":              "ok-id_123",
		"has\nnewline":           "hasnewline",
		"sp ace\ttab":            "spacetab",
		strings.Repeat("x", 100): strings.Repeat("x", 64),
		"":                       "",
	}
	for in, want := range cases {
		if got := sanitizeRequestID(in); got != want {
			t.Errorf("sanitizeRequestID(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestAccessLog(t *testing.T) {
	var buf syncBuf
	_, hs := testServer(t, Config{Replicas: 1, AccessLog: &buf})

	req, _ := http.NewRequest("GET", hs.URL+"/pointsto?var=v0", nil)
	req.Header.Set("X-Request-Id", "log-miss")
	if resp, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	get(t, hs.URL+"/pointsto?var=v0")           // cache hit
	get(t, hs.URL+"/pointsto?var=no-such-name") // 422
	waitFor(t, "3 access-log lines", func() bool {
		return strings.Count(buf.String(), "\n") >= 3
	})

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	type rec struct {
		RequestID  string  `json:"request_id"`
		Method     string  `json:"method"`
		Path       string  `json:"path"`
		Status     int     `json:"status"`
		Bytes      int     `json:"bytes"`
		DurationMS float64 `json:"duration_ms"`
		Cache      string  `json:"cache"`
		Class      string  `json:"class"`
	}
	var recs []rec
	for _, line := range lines {
		var r rec
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("bad access-log line %q: %v", line, err)
		}
		recs = append(recs, r)
	}
	if recs[0].RequestID != "log-miss" || recs[0].Status != 200 || recs[0].Cache != "miss" || recs[0].Bytes == 0 {
		t.Errorf("miss record: %+v", recs[0])
	}
	if recs[1].Cache != "hit" || recs[1].Status != 200 {
		t.Errorf("hit record: %+v", recs[1])
	}
	if recs[2].Status != 422 || recs[2].Class != "rejected" {
		t.Errorf("error record: %+v", recs[2])
	}
	for _, r := range recs {
		if r.Path != "/pointsto" || r.Method != "GET" || r.RequestID == "" {
			t.Errorf("record fields: %+v", r)
		}
	}
}

// TestLatencyHistograms: cold and cached requests land in separate
// per-endpoint histogram series.
func TestLatencyHistograms(t *testing.T) {
	s, hs := testServer(t, Config{Replicas: 1})
	get(t, hs.URL+"/pointsto?var=v0") // miss
	get(t, hs.URL+"/pointsto?var=v0") // hit
	get(t, hs.URL+"/aliases?var=v0")  // miss on another endpoint
	snap := s.reg.Snapshot()
	for key, want := range map[string]float64{
		"serve.latency.pointsto.ci.miss.count": 1,
		"serve.latency.pointsto.ci.hit.count":  1,
		"serve.latency.aliases.ci.miss.count":  1,
	} {
		if snap[key] != want {
			t.Errorf("%s = %g, want %g", key, snap[key], want)
		}
	}
	// Quantile keys ride along.
	if _, ok := snap["serve.latency.pointsto.ci.miss.p99"]; !ok {
		t.Errorf("missing p99 for the miss series")
	}
	// Non-200s and non-query endpoints don't observe.
	get(t, hs.URL+"/pointsto?var=no-such-name")
	get(t, hs.URL+"/healthz")
	snap = s.reg.Snapshot()
	if got := snap["serve.latency.pointsto.ci.miss.count"]; got != 1 {
		t.Errorf("422 leaked into the latency histogram: count %g", got)
	}
}

func TestTimeseriesEndpoint(t *testing.T) {
	s, hs := testServer(t, Config{Replicas: 2, SampleInterval: 10 * time.Millisecond})
	get(t, hs.URL+"/pointsto?var=v0")
	waitFor(t, "a few samples", func() bool { return len(s.sampler.Snapshot()) >= 2 })
	code, body, hdr := get(t, hs.URL+"/debug/timeseries")
	if code != 200 || hdr.Get("Content-Type") != "application/json" {
		t.Fatalf("status %d, Content-Type %q", code, hdr.Get("Content-Type"))
	}
	var doc struct {
		IntervalSec float64 `json:"interval_sec"`
		Samples     []struct {
			Values map[string]float64 `json:"values"`
		} `json:"samples"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.IntervalSec != 0.01 || len(doc.Samples) < 2 {
		t.Fatalf("interval %g, %d samples", doc.IntervalSec, len(doc.Samples))
	}
	vals := doc.Samples[len(doc.Samples)-1].Values
	for _, want := range []string{
		"go.goroutines",
		"serve.replicas",
		"serve.replica.0.live_nodes",
		"serve.replica.1.live_nodes",
	} {
		if _, ok := vals[want]; !ok {
			t.Errorf("timeseries missing %s; have %v", want, vals)
		}
	}
}

func TestTimeseriesDisabled(t *testing.T) {
	_, hs := testServer(t, Config{Replicas: 1, SampleInterval: -1})
	code, body, _ := get(t, hs.URL+"/debug/timeseries")
	if code != 404 || !strings.Contains(body, "sampler disabled") {
		t.Errorf("disabled sampler endpoint: %d %s, want 404 naming the disabled sampler", code, body)
	}
}

func TestHealthzBuildInfo(t *testing.T) {
	s, hs := testServer(t, Config{Replicas: 1})
	_, body, _ := get(t, hs.URL+"/healthz")
	var h struct {
		Status      string  `json:"status"`
		Fingerprint string  `json:"snapshot_fingerprint"`
		UptimeSec   float64 `json:"uptime_sec"`
		Build       struct {
			GoVersion string `json:"go_version"`
		} `json:"build"`
	}
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	if !regexp.MustCompile(`^[0-9a-f]{12}$`).MatchString(h.Fingerprint) {
		t.Errorf("fingerprint = %q, want 12 hex digits", h.Fingerprint)
	}
	if h.Fingerprint != s.Fingerprint() {
		t.Errorf("healthz fingerprint %q != server fingerprint %q", h.Fingerprint, s.Fingerprint())
	}
	if h.Build.GoVersion == "" {
		t.Errorf("missing build info: %s", body)
	}
	if h.UptimeSec < 0 {
		t.Errorf("uptime %g", h.UptimeSec)
	}
	// The same snapshot always fingerprints the same.
	s2, err := New(testSolver(t), Config{Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Fingerprint() != s.Fingerprint() {
		t.Errorf("identical programs fingerprint differently: %q vs %q", s2.Fingerprint(), s.Fingerprint())
	}
}

// TestLiveStatesGauge: per-query solver state is released after every
// request — the gauge that makes state leaks visible in monitoring.
func TestLiveStatesGauge(t *testing.T) {
	s, hs := testServer(t, Config{Replicas: 2})
	for i := 0; i < 8; i++ {
		code, _, _ := get(t, hs.URL+"/pointsto?var=v"+string(rune('0'+i%3)))
		if code != 200 {
			t.Fatalf("query %d: status %d", i, code)
		}
	}
	get(t, hs.URL+"/pointsto?var=no-such-name") // errors must not leak either
	if live := s.reg.Gauge("serve.query.live_states").Value(); live != 0 {
		t.Errorf("serve.query.live_states = %g after all queries finished, want 0", live)
	}
	if v := s.reg.Gauge("serve.inflight").Value(); v != 0 {
		t.Errorf("serve.inflight = %g at idle, want 0", v)
	}
	// Replica substrate gauges were pushed by the workers.
	snap := s.reg.Snapshot()
	if snap["serve.replica.0.live_nodes"] <= 0 && snap["serve.replica.1.live_nodes"] <= 0 {
		t.Errorf("no replica pushed live_nodes: %v", snap)
	}
}
