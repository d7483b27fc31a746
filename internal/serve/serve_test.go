package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"bddbddb/internal/datalog"
	"bddbddb/internal/obs"
)

// testSolver solves a miniature points-to program (the paper's
// Algorithm 1 shape: vP0/assign/store inputs, vP/hP outputs) so the
// canned endpoints have the relations they template against.
func testSolver(t testing.TB) *datalog.Solver {
	t.Helper()
	src := `
.domain V 8 v.map
.domain H 4 h.map
.domain F 2 f.map
.relation vP0 (variable : V, heap : H) input
.relation assign (dest : V, source : V) input
.relation store (base : V, field : F, source : V) input
.relation vP (variable : V, heap : H) output
.relation hP (base : H, field : F, target : H) output

vP(v, h) :- vP0(v, h).
vP(d, h) :- assign(d, s), vP(s, h).
hP(hb, f, hs) :- store(b, f, s), vP(b, hb), vP(s, hs).
`
	prog, diags, err := datalog.ParseAndCheck("mini.dl", src)
	if err != nil {
		t.Fatal(err)
	}
	if diags.HasErrors() {
		t.Fatal(diags)
	}
	s, err := datalog.NewSolver(prog, datalog.Options{
		ElemNames: map[string][]string{
			"V": {"v0", "v1", "v2", "v3", "v4", "v5", "v6", "v7"},
			"H": {"h0", "h1", "h2", "h3"},
			"F": {"f0", "f1"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	vP0 := s.Relation("vP0")
	vP0.AddTuple(0, 0)
	vP0.AddTuple(1, 1)
	vP0.AddTuple(2, 2)
	assign := s.Relation("assign")
	assign.AddTuple(3, 0)
	assign.AddTuple(4, 3)
	assign.AddTuple(5, 1)
	store := s.Relation("store")
	store.AddTuple(1, 0, 2)
	if err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	return s
}

func testServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(testSolver(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s)
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return s, hs
}

func get(t testing.TB, url string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header
}

func post(t testing.TB, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// heapNames parses a single-output response body and returns the
// values of the named attribute, sorted.
func attrValues(t testing.TB, body, attr string) []string {
	t.Helper()
	var res struct {
		Outputs []struct {
			Tuples []map[string]string `json:"tuples"`
		} `json:"outputs"`
	}
	if err := json.Unmarshal([]byte(body), &res); err != nil {
		t.Fatalf("bad body %q: %v", body, err)
	}
	if len(res.Outputs) != 1 {
		t.Fatalf("want 1 output, got %d in %q", len(res.Outputs), body)
	}
	var vals []string
	for _, tu := range res.Outputs[0].Tuples {
		vals = append(vals, tu[attr])
	}
	sortStrings(vals)
	return vals
}

func sortStrings(ss []string) {
	for i := 1; i < len(ss); i++ {
		for j := i; j > 0 && ss[j] < ss[j-1]; j-- {
			ss[j], ss[j-1] = ss[j-1], ss[j]
		}
	}
}

func TestEndpoints(t *testing.T) {
	_, hs := testServer(t, Config{Replicas: 2})

	// vP = {v0:h0, v1:h1, v2:h2, v3:h0, v4:h0, v5:h1}.
	code, body, hdr := get(t, hs.URL+"/pointsto?var=v3")
	if code != 200 {
		t.Fatalf("pointsto: %d %s", code, body)
	}
	if got := attrValues(t, body, "heap"); len(got) != 1 || got[0] != "h0" {
		t.Fatalf("pointsto(v3) = %v, want [h0]", got)
	}
	if hdr.Get("X-Cache") != "miss" {
		t.Fatalf("first hit X-Cache = %q", hdr.Get("X-Cache"))
	}

	_, body, _ = get(t, hs.URL+"/aliases?var=v3")
	if got := attrValues(t, body, "alias"); fmt.Sprint(got) != "[v0 v3 v4]" {
		t.Fatalf("aliases(v3) = %v, want [v0 v3 v4]", got)
	}

	// store(v1, f0, v2) targets v2 which points to h2.
	_, body, _ = get(t, hs.URL+"/whodunnit?heap=h2")
	if got := attrValues(t, body, "source"); fmt.Sprint(got) != "[v1]" {
		t.Fatalf("whodunnit(h2) sources = %v, want [v1]", got)
	}

	code, body = post(t, hs.URL+"/query", `
.relation q (heap : H) output
q(h) :- hP(h0, f, h).  # fields of what h0-typed objects reference
`)
	if code != 200 {
		t.Fatalf("query: %d %s", code, body)
	}
	code, body = post(t, hs.URL+"/query", `{"query": ".relation q (v : V) output\nq(v) :- vP(v, \"h1\")."}`)
	if code != 200 {
		t.Fatalf("json query: %d %s", code, body)
	}
	if got := attrValues(t, body, "v"); fmt.Sprint(got) != "[v1 v5]" {
		t.Fatalf("vP(_, h1) = %v, want [v1 v5]", got)
	}

	code, body, _ = get(t, hs.URL+"/healthz")
	if code != 200 || !strings.Contains(body, `"status":"ok"`) {
		t.Fatalf("healthz: %d %s", code, body)
	}
	code, body, _ = get(t, hs.URL+"/schema")
	if code != 200 || !strings.Contains(body, `"name":"vP"`) {
		t.Fatalf("schema: %d %s", code, body)
	}
	code, body, _ = get(t, hs.URL+"/metrics")
	if code != 200 || !strings.Contains(body, "serve.requests") {
		t.Fatalf("metrics: %d %s", code, body)
	}
}

func TestErrorTaxonomy(t *testing.T) {
	s, hs := testServer(t, Config{Replicas: 1})

	// Unknown element name: well-formed but unanswerable → 422.
	code, body, _ := get(t, hs.URL+"/pointsto?var=nosuch")
	if code != 422 || !strings.Contains(body, `"class":"rejected"`) {
		t.Fatalf("unknown var: %d %s", code, body)
	}
	// Missing parameter → 422.
	if code, body, _ = get(t, hs.URL+"/pointsto"); code != 422 {
		t.Fatalf("missing var: %d %s", code, body)
	}
	// Syntax error → 400.
	code, body = post(t, hs.URL+"/query", "q(")
	if code != 400 || !strings.Contains(body, `"class":"bad_query"`) {
		t.Fatalf("syntax error: %d %s", code, body)
	}
	// Semantically rejected (writes to a base relation) → 422.
	code, body = post(t, hs.URL+"/query", "vP(0, 0).")
	if code != 422 || !strings.Contains(body, `"class":"rejected"`) {
		t.Fatalf("base write: %d %s", code, body)
	}
	// GET on /query → 405.
	if code, _, _ = get(t, hs.URL+"/query"); code != 405 {
		t.Fatalf("GET /query: %d", code)
	}

	// Draining → 503 with Retry-After on query endpoints, healthz flips.
	s.BeginDrain()
	code, body, hdr := get(t, hs.URL+"/pointsto?var=v0")
	if code != 503 || hdr.Get("Retry-After") == "" {
		t.Fatalf("draining: %d %s (Retry-After %q)", code, body, hdr.Get("Retry-After"))
	}
	if code, body, _ = get(t, hs.URL+"/healthz"); code != 503 || !strings.Contains(body, "draining") {
		t.Fatalf("draining healthz: %d %s", code, body)
	}
}

func TestBudgetExhaustionIs429(t *testing.T) {
	_, hs := testServer(t, Config{Replicas: 1, QueryTimeout: time.Nanosecond, CacheEntries: -1})
	code, body, _ := get(t, hs.URL+"/pointsto?var=v0")
	if code != 429 || !strings.Contains(body, `"class":"budget"`) {
		t.Fatalf("budget exhaustion: %d %s", code, body)
	}
	// And the replica stays usable for the next (unbudgeted) request —
	// the per-request controller must be detached even on failure.
	s2, hs2 := testServer(t, Config{Replicas: 1})
	_ = s2
	if code, body, _ = get(t, hs2.URL+"/pointsto?var=v0"); code != 200 {
		t.Fatalf("after budget failure: %d %s", code, body)
	}
}

func TestLoadSheddingIs503(t *testing.T) {
	s, hs := testServer(t, Config{Replicas: 1, MaxInFlight: 2, CacheEntries: -1})
	// Deterministically occupy the admission slots, then observe the
	// next request being shed rather than queued.
	s.inflight.Add(2)
	code, body, hdr := get(t, hs.URL+"/pointsto?var=v0")
	if code != 503 || !strings.Contains(body, `"class":"overloaded"`) || hdr.Get("Retry-After") == "" {
		t.Fatalf("shed: %d %s", code, body)
	}
	s.inflight.Add(-2)
	if code, body, _ = get(t, hs.URL+"/pointsto?var=v0"); code != 200 {
		t.Fatalf("after shed: %d %s", code, body)
	}
	if got := s.reg.Counter("serve.shed").Value(); got != 1 {
		t.Fatalf("serve.shed = %d, want 1", got)
	}
}

func TestCacheServesIdenticalBody(t *testing.T) {
	_, hs := testServer(t, Config{Replicas: 2})
	_, cold, hdr1 := get(t, hs.URL+"/aliases?var=v0")
	_, warm, hdr2 := get(t, hs.URL+"/aliases?var=v0")
	if hdr1.Get("X-Cache") != "miss" || hdr2.Get("X-Cache") != "hit" {
		t.Fatalf("X-Cache = %q then %q", hdr1.Get("X-Cache"), hdr2.Get("X-Cache"))
	}
	if cold != warm {
		t.Fatalf("cached body differs:\ncold: %s\nwarm: %s", cold, warm)
	}
	// Equivalent query text (comments, whitespace) shares the entry.
	_, eq := post(t, hs.URL+"/query", ".relation  aliases (alias : V) output  # same\n\naliases(v) :- vP(\"v0\", h),   vP(v, h).")
	if eq != warm {
		t.Fatalf("normalized query missed cache:\n%s\nvs\n%s", eq, warm)
	}
}

// TestConcurrentAgainstOracle is the race test: many goroutines hammer
// mixed endpoints on a multi-replica server; every response must be
// byte-identical (in its outputs) to a single-replica oracle's answer
// for the same request. Run under -race this also proves the replicas
// share no mutable state.
func TestConcurrentAgainstOracle(t *testing.T) {
	_, oracleHS := testServer(t, Config{Replicas: 1, CacheEntries: -1})
	_, hs := testServer(t, Config{Replicas: 4, MaxInFlight: 64})

	type req struct {
		method, path, body string
	}
	reqs := []req{
		{"GET", "/pointsto?var=v0", ""},
		{"GET", "/pointsto?var=v3", ""},
		{"GET", "/aliases?var=v1", ""},
		{"GET", "/aliases?var=v4", ""},
		{"GET", "/whodunnit?heap=h2", ""},
		{"POST", "/query", ".relation q (heap : H) output\nq(h) :- vP(v, h)."},
		{"POST", "/query", ".relation q (v : V) output\nq(v) :- vP(v, \"h0\")."},
		{"POST", "/query", ".relation q (b : V, s : V) output\nq(b, s) :- store(b, f, s)."},
	}
	do := func(t testing.TB, base string, r req) (int, string) {
		if r.method == "GET" {
			code, body, _ := get(t, base+r.path)
			return code, body
		}
		return post(t, base+r.path, r.body)
	}
	// outputs strips the volatile stats (solve_ms differs run to run).
	outputs := func(body string) string {
		var v struct {
			Outputs json.RawMessage `json:"outputs"`
		}
		if err := json.Unmarshal([]byte(body), &v); err != nil {
			return "unparseable: " + body
		}
		return string(v.Outputs)
	}
	want := make([]string, len(reqs))
	for i, r := range reqs {
		code, body := do(t, oracleHS.URL, r)
		if code != 200 {
			t.Fatalf("oracle %s %s: %d %s", r.method, r.path, code, body)
		}
		want[i] = outputs(body)
	}

	const workers = 8
	const rounds = 25
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				r := reqs[(w+i)%len(reqs)]
				code, body := do(t, hs.URL, r)
				if code != 200 {
					errc <- fmt.Errorf("%s %s: %d %s", r.method, r.path, code, body)
					return
				}
				if got := outputs(body); got != want[(w+i)%len(reqs)] {
					errc <- fmt.Errorf("%s %s diverged from oracle:\ngot  %s\nwant %s",
						r.method, r.path, got, want[(w+i)%len(reqs)])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

func TestShutdownLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	s, err := New(testSolver(t), Config{Replicas: 4})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s)
	for i := 0; i < 4; i++ {
		get(t, hs.URL+"/pointsto?var=v0")
	}
	s.BeginDrain()
	hs.Close()
	s.Close()
	// Close is idempotent.
	s.Close()
	deadline := time.Now().Add(3 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestCacheBounds(t *testing.T) {
	reg := obs.New()
	c := NewCache(2, 1<<20, 0, reg)
	c.Put("a", []byte("1"))
	c.Put("b", []byte("2"))
	c.Put("c", []byte("3")) // evicts a (LRU)
	if c.Get("a") != nil {
		t.Fatal("a survived entry-bound eviction")
	}
	if string(c.Get("b")) != "2" || string(c.Get("c")) != "3" {
		t.Fatal("b/c missing")
	}
	if got := reg.Counter("serve.cache.evictions").Value(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}

	// Byte bound: oversized bodies are not cached; accumulation evicts.
	c2 := NewCache(100, 10, 0, obs.New())
	c2.Put("big", make([]byte, 11))
	if c2.Len() != 0 {
		t.Fatal("oversized body was cached")
	}
	c2.Put("x", make([]byte, 6))
	c2.Put("y", make([]byte, 6)) // 12 > 10: x evicted
	if c2.Get("x") != nil || c2.Get("y") == nil {
		t.Fatal("byte-bound eviction wrong")
	}

	// TTL: entries expire on access.
	c3 := NewCache(10, 1<<20, time.Nanosecond, obs.New())
	c3.Put("t", []byte("v"))
	time.Sleep(time.Millisecond)
	if c3.Get("t") != nil {
		t.Fatal("expired entry served")
	}
	if c3.Len() != 0 {
		t.Fatal("expired entry retained")
	}
}

func TestNormalizeQuery(t *testing.T) {
	a := NormalizeQuery("q(x) :- vP(x, y).   # trailing comment\n")
	b := NormalizeQuery("\n\nq(x)   :- vP(x,\ty).")
	if a != b {
		t.Fatalf("normalization differs: %q vs %q", a, b)
	}
	if NormalizeQuery("# only comment") != "" {
		t.Fatal("comment-only query not empty")
	}
}

func TestNormalizeQueryQuotes(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"q(h) :- vP(\"a#2/$t22\", h).", "q(h) :- vP(\"a#2/$t22\", h)."},
		{"q(h) :- vP(\"a#2\", h). # real comment\n", "q(h) :- vP(\"a#2\", h)."},
		{"q(h) :- vP(\"a  b\",\th).", "q(h) :- vP(\"a  b\", h)."},
		{"# \"quoted\" in a comment\nq(h) :- vP(\"#\", h).", "q(h) :- vP(\"#\", h)."},
		{"q(h) :- vP(\"open\nq(x) :- vP(x, \"y\").", "q(h) :- vP(\"open\nq(x) :- vP(x, \"y\")."},
		{"q(h) :- vP(\"dangling", "q(h) :- vP(\"dangling"},
	} {
		if got := NormalizeQuery(tc.in); got != tc.want {
			t.Errorf("NormalizeQuery(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
	// The Transport.RoundTrip#2 shape parses after normalization.
	q := NormalizeQuery(".relation p (heap : H) output\np(h) :- vP(\"std/net/http.Transport.RoundTrip#2/$t22\", h). # c\n")
	if strings.Contains(q, "# c") || !strings.Contains(q, "RoundTrip#2/$t22") {
		t.Fatalf("normalized query %q", q)
	}
}

// TestSnapshotReleasedAfterHydration: once a pool's replicas are
// hydrated the server drops the snapshot's serialized DAG, while its
// size, node count and fingerprint stay as computed at NewSnapshot; a
// later Hydrate reports an error instead of reading the missing dump.
func TestSnapshotReleasedAfterHydration(t *testing.T) {
	sv := testSolver(t)
	fresh, err := NewSnapshot(sv)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(sv, Config{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	snap := s.current().snap
	if snap.dag != nil {
		t.Fatal("serialized DAG kept after the pool was hydrated")
	}
	if snap.Fingerprint() != fresh.Fingerprint() || snap.Bytes() != fresh.Bytes() || snap.Nodes() != fresh.Nodes() {
		t.Errorf("released snapshot reports %s/%d bytes/%d nodes, want %s/%d/%d",
			snap.Fingerprint(), snap.Bytes(), snap.Nodes(), fresh.Fingerprint(), fresh.Bytes(), fresh.Nodes())
	}
	if snap.Bytes() == 0 || snap.Nodes() == 0 {
		t.Errorf("empty snapshot metadata: %d bytes, %d nodes", snap.Bytes(), snap.Nodes())
	}
	if _, err := snap.Hydrate(nil); err == nil {
		t.Error("Hydrate of a released snapshot succeeded")
	}
	// A snapshot that no pool has released still hydrates.
	if _, err := fresh.Hydrate(nil); err != nil {
		t.Errorf("Hydrate of an unreleased snapshot: %v", err)
	}
}
