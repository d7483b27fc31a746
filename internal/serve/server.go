package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bddbddb/internal/datalog"
	"bddbddb/internal/obs"
	"bddbddb/internal/resilience"
)

// Config sizes and bounds the server. Zero values pick the documented
// defaults.
type Config struct {
	// Replicas is the number of independent snapshot hydrations, each
	// owned by one worker goroutine. Default GOMAXPROCS.
	Replicas int
	// QueryHeadroom adds this many scratch physical instances of every
	// logical domain to each replica, bounding how many distinct
	// same-domain variables an ad-hoc query may use beyond the original
	// program's needs. Default 1.
	QueryHeadroom int
	// CacheEntries / CacheBytes / CacheTTL bound the result cache
	// (defaults 1024 entries, 4 MiB, 5 minutes; CacheEntries < 0
	// disables caching).
	CacheEntries int
	CacheBytes   int
	CacheTTL     time.Duration
	// MaxInFlight is the admission limit: requests beyond it are shed
	// with 503 instead of queued. Default 2×Replicas.
	MaxInFlight int
	// QueryTimeout / QueryMaxNodes bound each request's evaluation
	// (per-request resilience.Controller). Defaults 5s, unlimited.
	// QueryMaxNodes counts the replica's total live BDD nodes, so set
	// it comfortably above the snapshot's node count.
	QueryTimeout  time.Duration
	QueryMaxNodes int
	// MaxTuples truncates each rendered output relation (the exact
	// count is always reported). Default 10000.
	MaxTuples int
	// MaxStrata caps ad-hoc query stratification depth. Default 1.
	MaxStrata int
	// Metrics receives the server's counters; nil allocates a private
	// registry (exposed at /metrics either way).
	Metrics *obs.Metrics
	// Degraded is surfaced in /healthz: the daemon fell back to a less
	// precise analysis when the startup solve ran out of budget.
	Degraded bool
	// Tracer, when set, receives one instant event per served request
	// (request ID, endpoint, status, cache outcome). With Replicas == 1
	// it additionally flows into each query's solve spans; with more
	// replicas concurrent workers would interleave span nesting, so only
	// the flat per-request instants are emitted.
	Tracer obs.Tracer
	// AccessLog, when set, receives one JSON line per request.
	AccessLog io.Writer
	// SampleInterval is the background sampler's period for the
	// /debug/timeseries substrate gauges (0 = 1s; negative disables the
	// sampler). SampleCap bounds its ring buffer (0 = 600 samples).
	SampleInterval time.Duration
	SampleCap      int
	// Precision, when set, is served verbatim as JSON at /precision —
	// the daemon computes a precision.Report at startup when asked to.
	// Nil means the endpoint answers 404 with a hint. Held as any so
	// the serve layer stays decoupled from the comparison engine.
	Precision any
	// Updater, when set, enables the live-update lifecycle (POST
	// /update and SIGHUP delta reload): it owns the solver the serve
	// snapshots are cut from. Nil disables updates (501).
	Updater Updater
	// UpdateTimeout / UpdateMaxNodes bound each update's incremental
	// re-solve (per-update resilience.Controller); exceeding them
	// degrades to a full background re-solve. Defaults 2m, unlimited.
	UpdateTimeout  time.Duration
	UpdateMaxNodes int
}

func (c *Config) fill() {
	if c.Replicas <= 0 {
		c.Replicas = runtime.GOMAXPROCS(0)
	}
	if c.QueryHeadroom <= 0 {
		c.QueryHeadroom = 1
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 1024
	}
	if c.CacheTTL == 0 {
		c.CacheTTL = 5 * time.Minute
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 2 * c.Replicas
	}
	if c.QueryTimeout == 0 {
		c.QueryTimeout = 5 * time.Second
	}
	if c.MaxTuples <= 0 {
		c.MaxTuples = 10000
	}
	if c.MaxStrata <= 0 {
		c.MaxStrata = 1
	}
	if c.SampleInterval == 0 {
		c.SampleInterval = time.Second
	}
	if c.UpdateTimeout == 0 {
		c.UpdateTimeout = 2 * time.Minute
	}
}

// pool is one snapshot generation's worker set: the hydrated replicas,
// their job channel, and the bookkeeping that lets a swapped-out
// generation retire only after its last in-flight request finishes.
type pool struct {
	gen  uint64
	snap *Snapshot
	sh   shape
	val  *datalog.QueryBase // replica 0's base: immutable name tables for validation
	jobs chan *job
	wg   sync.WaitGroup // worker goroutines
	// pending counts requests holding this pool. Acquired under the
	// server's read lock (so a swap, which takes the write lock, can
	// never miss an acquisition), waited on by the retire goroutine
	// before the job channel closes — no send-on-closed-channel, no
	// dropped request.
	pending sync.WaitGroup
}

// Server dispatches HTTP queries to a pool of replica-owning workers.
// It implements http.Handler; pair it with an http.Server (or httptest)
// for the listener.
//
// Lifecycle: New → serve traffic (ApplyUpdate may hot-swap the pool
// any number of times) → BeginDrain (new requests 503) →
// http.Server.Shutdown (in-flight handlers finish) → Close (workers
// exit). Close must come after the HTTP layer stops delivering
// requests.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	cache   *Cache
	reg     *obs.Metrics
	tracer  obs.Tracer
	alog    *obs.AccessLogger
	sampler *obs.Sampler
	build   obs.BuildInfo
	start   time.Time

	// mu guards cur, the serving generation. Requests acquire it via
	// acquire() (read lock + pending count); ApplyUpdate swaps it under
	// the write lock. retired tracks swapped-out pools still draining.
	mu      sync.RWMutex
	cur     *pool
	retired sync.WaitGroup
	// updateMu serializes updates: a second concurrent update is
	// rejected with 409, not queued.
	updateMu chan struct{}

	draining  atomic.Bool
	inflight  atomic.Int64
	closeOnce sync.Once

	cRequests   *obs.Counter
	cShed       *obs.Counter
	tQuery      *obs.Timer
	gInflight   *obs.Gauge
	gLiveStates *obs.Gauge
	gGeneration *obs.Gauge
	// cMemoHits, cMemoMisses and cMemoPivoted sum the finished
	// queries' base-memo outcomes (datalog.SolverStats.BaseMemoHits,
	// BaseMemoMisses and BaseMemoPivoted).
	cMemoHits    *obs.Counter
	cMemoMisses  *obs.Counter
	cMemoPivoted *obs.Counter
}

type job struct {
	ctx  context.Context
	src  string
	rid  string // request ID, stamped into the query's resilience errors
	done chan struct{}
	body []byte
	err  error
}

// New snapshots the solved solver and starts cfg.Replicas workers.
// The solver's relations are serialized once; the solver itself is not
// retained.
func New(sv *datalog.Solver, cfg Config) (*Server, error) {
	cfg.fill()
	snap, err := NewSnapshot(sv)
	if err != nil {
		return nil, err
	}
	return newFromSnapshot(snap, cfg)
}

func newFromSnapshot(snap *Snapshot, cfg Config) (*Server, error) {
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.New()
	}
	s := &Server{
		cfg:      cfg,
		reg:      reg,
		tracer:   cfg.Tracer,
		build:    obs.ReadBuildInfo(),
		start:    time.Now(),
		updateMu: make(chan struct{}, 1),
	}
	if cfg.AccessLog != nil {
		s.alog = obs.NewAccessLogger(cfg.AccessLog)
	}
	s.cache = NewCache(cfg.CacheEntries, cfg.CacheBytes, cfg.CacheTTL, reg)
	s.cRequests = reg.Counter("serve.requests")
	s.cShed = reg.Counter("serve.shed")
	s.tQuery = reg.Timer("serve.query")
	s.gInflight = reg.Gauge("serve.inflight")
	s.gLiveStates = reg.Gauge("serve.query.live_states")
	s.gGeneration = reg.Gauge("serve.generation")
	s.cMemoHits = reg.Counter("serve.query.base_memo_hits")
	s.cMemoMisses = reg.Counter("serve.query.base_memo_misses")
	s.cMemoPivoted = reg.Counter("serve.query.base_memo_pivoted")
	reg.Set("serve.replicas", float64(cfg.Replicas))
	p, err := s.buildPool(snap, 1)
	if err != nil {
		return nil, err
	}
	s.cur = p
	s.gGeneration.Set(float64(p.gen))
	mux := http.NewServeMux()
	mux.HandleFunc("/pointsto", s.handlePointsTo)
	mux.HandleFunc("/aliases", s.handleAliases)
	mux.HandleFunc("/whodunnit", s.handleWhodunnit)
	mux.HandleFunc("/precision", s.handlePrecision)
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/update", s.handleUpdate)
	mux.HandleFunc("/schema", s.handleSchema)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/timeseries", s.handleTimeseries)
	s.mux = mux
	// The sampler reads only the registry and the Go runtime — never a
	// replica's manager directly; workers push per-replica substrate
	// gauges into the registry, so the single-threaded managers stay
	// single-threaded.
	if cfg.SampleInterval > 0 {
		s.sampler = obs.NewSampler(cfg.SampleInterval, cfg.SampleCap,
			obs.RegistrySource(reg, "serve.", "go."))
		s.sampler.Start()
	}
	return s, nil
}

// buildPool hydrates a full replica set from snap and starts its
// workers, then releases snap's serialized DAG, which nothing reads
// after hydration. On hydration failure the partial pool is torn down.
func (s *Server) buildPool(snap *Snapshot, gen uint64) (*pool, error) {
	p := &pool{
		gen:  gen,
		snap: snap,
		jobs: make(chan *job, s.cfg.MaxInFlight),
	}
	extra := make(map[string]int, len(snap.domains))
	for _, dm := range snap.domains {
		extra[dm.name] = s.cfg.QueryHeadroom
	}
	for i := 0; i < s.cfg.Replicas; i++ {
		rep, err := snap.Hydrate(extra)
		if err != nil {
			close(p.jobs)
			p.wg.Wait()
			return nil, fmt.Errorf("serve: hydrating replica %d: %w", i, err)
		}
		if i == 0 {
			p.val = rep.Base
			p.sh = shapeOf(rep.Base.HasRelation)
		}
		s.pushReplicaStats(i, rep)
		p.wg.Add(1)
		go s.worker(i, rep, p)
	}
	snap.release()
	return p, nil
}

// acquire pins the serving pool for one request: the returned pool's
// job channel is guaranteed open until the matching pending.Done().
func (s *Server) acquire() *pool {
	s.mu.RLock()
	p := s.cur
	p.pending.Add(1)
	s.mu.RUnlock()
	return p
}

// current reads the serving pool for metadata (schema, health,
// fingerprint) without pinning it.
func (s *Server) current() *pool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.cur
}

// retire drains a swapped-out generation in the background: once the
// last request holding it finishes, the job channel closes and its
// workers (and their BDD managers) become garbage.
//
// It then collects at once. The update built the new generation while
// the old one was still live, so a collection that fell inside that
// window marked both and set the next heap target to twice their sum;
// until the next collection the heap could grow to it. Collecting after
// the old generation is unreachable resets the target to twice the one
// generation that serves, so the daemon's peak footprint no longer
// depends on when the runtime happened to collect during an update.
func (s *Server) retire(old *pool) {
	s.retired.Add(1)
	go func() {
		defer s.retired.Done()
		old.pending.Wait()
		close(old.jobs)
		old.wg.Wait()
		old = nil
		runtime.GC()
	}()
}

// Replicas returns the worker-pool size.
func (s *Server) Replicas() int { return s.cfg.Replicas }

// SnapshotNodes returns the BDD node count of the frozen snapshot each
// replica hydrates.
func (s *Server) SnapshotNodes() int { return s.current().snap.Nodes() }

// Generation returns the serving snapshot generation (1 at startup,
// bumped by every applied update).
func (s *Server) Generation() uint64 { return s.current().gen }

// Cache exposes the result cache (tests and the stats endpoint).
func (s *Server) Cache() *Cache { return s.cache }

// BeginDrain rejects all subsequent query traffic with 503 (and flips
// /healthz to draining) while letting in-flight requests finish — call
// it before http.Server.Shutdown for a graceful SIGTERM.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Close stops the sampler and the worker pool after the in-flight jobs
// drain. The HTTP layer must already have stopped delivering requests
// (BeginDrain + http.Server.Shutdown); submitting after Close panics by
// design.
func (s *Server) Close() {
	if s.sampler != nil {
		s.sampler.Stop()
	}
	s.closeOnce.Do(func() {
		p := s.current()
		p.pending.Wait()
		close(p.jobs)
		p.wg.Wait()
		s.retired.Wait()
	})
}

// Sampler exposes the background substrate sampler (nil when disabled)
// — the daemon dumps its buffer on SIGQUIT.
func (s *Server) Sampler() *obs.Sampler { return s.sampler }

// Fingerprint identifies the snapshot the server answers from.
func (s *Server) Fingerprint() string { return s.current().snap.Fingerprint() }

// worker owns one replica for its pool's lifetime: jobs arrive over
// the pool's channel and run on this goroutine only, so the replica's
// BDD manager never sees concurrency.
func (s *Server) worker(i int, rep *Replica, p *pool) {
	defer p.wg.Done()
	for j := range p.jobs {
		s.runJob(rep, j)
		s.pushReplicaStats(i, rep)
	}
}

// pushReplicaStats publishes one replica's BDD substrate state as
// gauges. Only the owning worker goroutine calls it (plus once at
// hydration, before the worker starts), so the manager is never read
// concurrently; the sampler and /metrics read the registry, which is
// safe.
func (s *Server) pushReplicaStats(i int, rep *Replica) {
	m := rep.U.M
	st := m.Stats()
	prefix := fmt.Sprintf("serve.replica.%d.", i)
	s.reg.Set(prefix+"live_nodes", float64(m.LiveNodes()))
	s.reg.Set(prefix+"produced_nodes", float64(st.Produced))
	s.reg.Set(prefix+"gcs", float64(st.GCs))
	total := st.CacheHits + st.CacheMiss
	ratio := 0.0
	if total > 0 {
		ratio = float64(st.CacheHits) / float64(total)
	}
	s.reg.Set(prefix+"op_cache_hit_ratio", ratio)
	s.reg.Set(prefix+"base_memo_nodes", float64(rep.Base.MemoNodes()))
}

func (s *Server) runJob(rep *Replica, j *job) {
	defer close(j.done)
	defer resilience.Recover(&j.err)
	ctl := resilience.NewController(j.ctx, resilience.Budget{
		Timeout:      s.cfg.QueryTimeout,
		MaxLiveNodes: s.cfg.QueryMaxNodes,
	})
	ctl.SetTag(j.rid)
	// Solve spans nest globally in the Chrome/log tracers, so the
	// per-query solve trace is only safe single-replica; the flat
	// per-request instants in ServeHTTP cover the concurrent case.
	var tr obs.Tracer
	if s.cfg.Replicas == 1 {
		tr = s.tracer
	}
	t0 := time.Now()
	res, err := rep.Base.Eval(j.src, datalog.QueryOptions{
		Control:   ctl,
		Tracer:    tr,
		MaxStrata: s.cfg.MaxStrata,
	})
	if err != nil {
		j.err = err
		return
	}
	s.cMemoHits.Add(res.Stats.BaseMemoHits)
	s.cMemoMisses.Add(res.Stats.BaseMemoMisses)
	s.cMemoPivoted.Add(res.Stats.BaseMemoPivoted)
	s.gLiveStates.Add(1)
	defer func() {
		res.Close()
		s.gLiveStates.Add(-1)
	}()
	j.body, j.err = renderResult(j.src, res, s.cfg.MaxTuples, time.Since(t0))
	rep.MaybeGC()
	s.tQuery.Observe(time.Since(t0))
}

// runQuery is the shared endpoint path: cache lookup, admission,
// dispatch, render. src must already be normalized. The whole request
// runs against one pinned generation — the pool acquired here — so a
// concurrent hot-swap can never hand it mixed state, and the cache key
// carries the generation so a post-swap request can never read a
// pre-swap answer.
func (s *Server) runQuery(w http.ResponseWriter, r *http.Request, src string) {
	s.cRequests.Inc()
	if s.draining.Load() {
		s.shed(w, "draining")
		return
	}
	p := s.acquire()
	defer p.pending.Done()
	w.Header().Set("X-Generation", fmt.Sprint(p.gen))
	key := fmt.Sprintf("g%d|%s", p.gen, src)
	if s.cfg.CacheEntries >= 0 {
		if body := s.cache.Get(key); body != nil {
			w.Header().Set("X-Cache", "hit")
			writeBody(w, http.StatusOK, body)
			return
		}
	}
	// Admission control: beyond MaxInFlight concurrent requests, shed
	// instead of queueing — a bounded worker pool with an unbounded
	// queue just converts overload into timeouts.
	cur := s.inflight.Add(1)
	s.gInflight.Set(float64(cur))
	if cur > int64(s.cfg.MaxInFlight) {
		s.gInflight.Set(float64(s.inflight.Add(-1)))
		s.shed(w, "overloaded")
		return
	}
	defer func() { s.gInflight.Set(float64(s.inflight.Add(-1))) }()
	j := &job{ctx: r.Context(), src: src, rid: requestID(w), done: make(chan struct{})}
	select {
	case p.jobs <- j:
	case <-r.Context().Done():
		s.writeError(w, resilience.NewController(r.Context(), resilience.Budget{}).Err())
		return
	}
	<-j.done
	if j.err != nil {
		s.writeError(w, j.err)
		return
	}
	if s.cfg.CacheEntries >= 0 {
		s.cache.Put(key, j.body)
	}
	w.Header().Set("X-Cache", "miss")
	writeBody(w, http.StatusOK, j.body)
}

func (s *Server) shed(w http.ResponseWriter, why string) {
	s.cShed.Inc()
	s.reg.Counter("serve.errors." + why).Inc()
	setErrorClass(w, why)
	w.Header().Set("Retry-After", "1")
	writeJSON(w, http.StatusServiceUnavailable, errorJSON{Error: "server " + why, Class: why, RequestID: requestID(w)})
}

func (s *Server) writeError(w http.ResponseWriter, err error) {
	status, class := statusFor(err)
	s.reg.Counter("serve.errors." + class).Inc()
	setErrorClass(w, class)
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, errorJSON{Error: err.Error(), Class: class, RequestID: requestID(w)})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeBody(w, status, body)
}

func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
	w.Write([]byte("\n"))
}

// namedParam validates a ?param= element name against the domain's
// name table before it is spliced into a canned query; unknown names
// are 422 (the query would be well-formed but can't match anything the
// snapshot knows about).
func (s *Server) namedParam(w http.ResponseWriter, r *http.Request, param, domain string) (string, bool) {
	name := r.URL.Query().Get(param)
	if name == "" {
		s.writeError(w, &datalog.QueryRejectError{Reason: "missing ?" + param + "= parameter"})
		return "", false
	}
	if !exprName(name) {
		s.writeError(w, &datalog.QueryRejectError{Reason: fmt.Sprintf("name %q is not expressible in a query", name)})
		return "", false
	}
	if _, ok := s.current().val.ElemIndex(domain, name); !ok {
		s.writeError(w, &datalog.QueryRejectError{Reason: fmt.Sprintf("unknown %s name %q", domain, name)})
		return "", false
	}
	return name, true
}

func (s *Server) handlePointsTo(w http.ResponseWriter, r *http.Request) {
	name, ok := s.namedParam(w, r, "var", "V")
	if !ok {
		return
	}
	src, err := s.current().sh.pointstoQuery(name)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.runQuery(w, r, NormalizeQuery(src))
}

func (s *Server) handleAliases(w http.ResponseWriter, r *http.Request) {
	name, ok := s.namedParam(w, r, "var", "V")
	if !ok {
		return
	}
	src, err := s.current().sh.aliasesQuery(name)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.runQuery(w, r, NormalizeQuery(src))
}

func (s *Server) handleWhodunnit(w http.ResponseWriter, r *http.Request) {
	name, ok := s.namedParam(w, r, "heap", "H")
	if !ok {
		return
	}
	src, err := s.current().sh.whodunnitQuery(name)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.runQuery(w, r, NormalizeQuery(src))
}

// handlePrecision serves the startup-computed mode-comparison report.
func (s *Server) handlePrecision(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Precision == nil {
		writeJSON(w, http.StatusNotFound, errorJSON{
			Error:     "no precision report: start the daemon with -precision",
			Class:     "rejected",
			RequestID: requestID(w),
		})
		return
	}
	writeJSON(w, http.StatusOK, s.cfg.Precision)
}

// handleQuery evaluates an ad-hoc Datalog query: POST with either a
// JSON {"query": "..."} body or raw Datalog text.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, errorJSON{Error: "POST a Datalog query", Class: "bad_query"})
		return
	}
	raw, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		s.writeError(w, err)
		return
	}
	src := string(raw)
	if strings.HasPrefix(strings.TrimSpace(src), "{") {
		var req struct {
			Query string `json:"query"`
		}
		if err := json.Unmarshal(raw, &req); err != nil {
			writeJSON(w, http.StatusBadRequest, errorJSON{Error: "bad JSON body: " + err.Error(), Class: "bad_query"})
			return
		}
		src = req.Query
	}
	if strings.TrimSpace(src) == "" {
		writeJSON(w, http.StatusBadRequest, errorJSON{Error: "empty query", Class: "bad_query"})
		return
	}
	s.runQuery(w, r, NormalizeQuery(src))
}

func (s *Server) handleSchema(w http.ResponseWriter, r *http.Request) {
	type relJSON struct {
		Name  string     `json:"name"`
		Kind  string     `json:"kind"`
		Attrs []attrJSON `json:"attrs"`
	}
	type domJSON struct {
		Name  string `json:"name"`
		Size  uint64 `json:"size"`
		Named bool   `json:"named"`
	}
	type updateJSON struct {
		Enabled bool   `json:"enabled"`
		Format  string `json:"delta_format"`
		Example string `json:"example"`
	}
	out := struct {
		Domains   []domJSON  `json:"domains"`
		Relations []relJSON  `json:"relations"`
		Update    updateJSON `json:"update"`
	}{}
	p := s.current()
	for _, dm := range p.snap.domains {
		out.Domains = append(out.Domains, domJSON{Name: dm.name, Size: dm.size, Named: dm.elemNames != nil})
	}
	for _, rm := range p.snap.relations {
		rj := relJSON{Name: rm.name, Kind: relKindString(rm.kind)}
		for _, am := range rm.attrs {
			rj.Attrs = append(rj.Attrs, attrJSON{Name: am.name, Domain: am.dom})
		}
		out.Relations = append(out.Relations, rj)
	}
	out.Update = updateJSON{
		Enabled: s.cfg.Updater != nil,
		Format: "POST /update a JSON delta {\"add\": {relation: [tuple, ...]}, \"remove\": {...}}; " +
			"each tuple is an array of attribute values, a value is a numeric domain index or " +
			"an element-name string (new names are registered on additions; removals may only " +
			"name known elements). Only input relations accept deltas.",
		Example: `{"add":{"assign":[["dst","src"],[3,0]]},"remove":{"vP0":[["v","h0"]]}}`,
	}
	writeJSON(w, http.StatusOK, out)
}

func relKindString(k datalog.RelKind) string {
	switch k {
	case datalog.RelInput:
		return "input"
	case datalog.RelOutput:
		return "output"
	default:
		return "temp"
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	type health struct {
		Status      string        `json:"status"`
		Replicas    int           `json:"replicas"`
		Nodes       int           `json:"snapshot_nodes"`
		Degraded    bool          `json:"degraded"`
		Fingerprint string        `json:"snapshot_fingerprint"`
		Generation  uint64        `json:"generation"`
		UptimeSec   float64       `json:"uptime_sec"`
		Build       obs.BuildInfo `json:"build"`
	}
	p := s.current()
	h := health{
		Status:      "ok",
		Replicas:    s.cfg.Replicas,
		Nodes:       p.snap.Nodes(),
		Degraded:    s.cfg.Degraded,
		Fingerprint: p.snap.Fingerprint(),
		Generation:  p.gen,
		UptimeSec:   time.Since(s.start).Seconds(),
		Build:       s.build,
	}
	status := http.StatusOK
	if s.draining.Load() {
		h.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}

// wantsPrometheus decides the /metrics representation: explicit
// ?format=prom (or ?format=json) wins, then the Accept header
// (text/plain is what Prometheus scrapers send). Default is the flat
// metrics JSON, which existing tooling parses.
func wantsPrometheus(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "prom", "prometheus":
		return true
	case "json":
		return false
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") && !strings.Contains(accept, "application/json")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.reg.Set("serve.inflight", float64(s.inflight.Load()))
	s.reg.Set("serve.cache.entries", float64(s.cache.Len()))
	s.reg.Set("serve.uptime_sec", time.Since(s.start).Seconds())
	if wantsPrometheus(r) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.reg.WritePrometheus(w, s.build.PromInfo("bddbddbd",
			[2]string{"snapshot_fingerprint", s.current().snap.Fingerprint()}))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	obs.WriteMetricsJSON(w, "bddbddbd", s.reg.Snapshot())
}

// handleTimeseries dumps the background sampler's ring buffer — the
// recent per-replica substrate gauges and Go runtime series.
func (s *Server) handleTimeseries(w http.ResponseWriter, r *http.Request) {
	if s.sampler == nil {
		writeJSON(w, http.StatusNotFound, errorJSON{Error: "sampler disabled (SampleInterval < 0)", Class: "bad_query", RequestID: requestID(w)})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	s.sampler.WriteJSON(w)
}
