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

	"bddbddb/internal/bdd"
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
	// Tracer, when set and Replicas == 1, receives each query's solve
	// spans. With more replicas concurrent workers would interleave span
	// nesting, so it receives nothing; per-request records go to
	// AccessLog.
	Tracer obs.Tracer
	// AccessLog, when set, receives one JSON line per request.
	AccessLog io.Writer
	// SampleInterval is the background sampler's period for the
	// /debug/timeseries substrate gauges (0 = 1s; negative disables the
	// sampler). Its ring keeps the last 600 samples.
	SampleInterval time.Duration
	// Updater, when set, enables the live-update lifecycle (POST
	// /update): it owns the solver the serve snapshots are cut from.
	// Nil disables updates (501).
	Updater Updater
	// UpdateTimeout / UpdateMaxNodes bound each update's incremental
	// re-solve (per-update resilience.Controller); exceeding them rolls
	// the update back and re-runs it unbudgeted, recomputing every
	// stratum it reaches. Defaults 2m, unlimited.
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

// pool is one replica set: the workers that own the hydrated replicas,
// the job channel they share, and one control channel per worker,
// through which a live update patches each replica between jobs. A
// pool serves one generation after another until a full publish
// replaces it.
type pool struct {
	jobs chan *job
	ctl  []chan func(views)
	wg   sync.WaitGroup // worker goroutines
	// gens counts the pool's generations that serve or still drain. A
	// replaced pool closes its job channel once the count reaches zero.
	gens sync.WaitGroup
}

// views holds one worker's replica views by generation: the serving
// generation's, an update's next one while it is published, and
// retired ones until their last request finishes. Only the worker's
// goroutine touches it.
type views map[uint64]*Replica

// generation is one published state: its snapshot metadata, replica
// 0's query base (immutable name tables for validation), the pool
// whose workers hold its views, and the bookkeeping that lets it
// retire only after its last in-flight request finishes.
type generation struct {
	gen  uint64
	snap *Snapshot
	sh   shape
	val  *datalog.QueryBase
	pool *pool
	// pending counts requests holding this generation. Acquired under
	// the server's read lock (so a swap, which takes the write lock,
	// can never miss an acquisition), waited on by the retire goroutine
	// before the workers drop the generation's views — no job ever
	// reaches a worker after its view is gone.
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
	tracer  obs.Tracer // queries' solve spans; nil unless one replica
	alog    *obs.AccessLogger
	sampler *obs.Sampler
	build   obs.BuildInfo
	start   time.Time

	// mu guards cur, the serving generation. Requests acquire it via
	// acquire() (read lock + pending count); ApplyUpdate swaps it under
	// the write lock. retired tracks swapped-out generations still
	// draining.
	mu      sync.RWMutex
	cur     *generation
	retired sync.WaitGroup
	// updateMu serializes updates: a second concurrent update is
	// rejected with 409, not queued.
	updateMu chan struct{}
	// dw is bound to the live solver's manager and holds the dump ids
	// of the serving pool's full snapshot and every patch since; nil
	// when the next publish must be full (see canPatch). fullIDs is its
	// id count right after that full dump. Both belong to the update
	// path (updateMu) after New.
	dw      *bdd.DAGWriter
	fullIDs int

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
	gen  uint64 // the generation whose view answers it
	ctx  context.Context
	src  string
	rid  string // request ID, stamped into the query's resilience errors
	done chan struct{}
	body []byte
	err  error
}

// New snapshots the solved solver and starts cfg.Replicas workers.
// The solver's relations are serialized once. When sv is the solver
// cfg.Updater updates, the server keeps the snapshot's dump ids (and
// references to the nodes they name in sv's manager), so a live update
// publishes only the nodes it created; otherwise the solver itself is
// not retained.
func New(sv *datalog.Solver, cfg Config) (*Server, error) {
	cfg.fill()
	w := sv.Universe().M.NewDAGWriter()
	snap, err := fullSnapshot(sv, w)
	if err != nil {
		w.Release()
		return nil, err
	}
	s, err := newFromSnapshot(snap, cfg)
	if err != nil || cfg.Updater == nil || cfg.Updater.Solver() != sv {
		w.Release()
		return s, err
	}
	s.dw, s.fullIDs = w, w.Len()
	return s, nil
}

func newFromSnapshot(snap *Snapshot, cfg Config) (*Server, error) {
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.New()
	}
	s := &Server{
		cfg:      cfg,
		reg:      reg,
		build:    obs.ReadBuildInfo(),
		start:    time.Now(),
		updateMu: make(chan struct{}, 1),
	}
	// Solve spans nest on one stack per tracer, so queries trace only
	// when a single worker runs them.
	if cfg.Replicas == 1 {
		s.tracer = cfg.Tracer
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
	g, err := s.buildPool(snap, 1)
	if err != nil {
		return nil, err
	}
	g.pool.gens.Add(1)
	s.cur = g
	s.gGeneration.Set(float64(g.gen))
	mux := http.NewServeMux()
	mux.HandleFunc("/pointsto", s.handlePointsTo)
	mux.HandleFunc("/aliases", s.handleAliases)
	mux.HandleFunc("/whodunnit", s.handleWhodunnit)
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
		s.sampler = obs.NewSampler(cfg.SampleInterval, 0,
			obs.RegistrySource(reg, "serve.", "go."))
		s.sampler.Start()
	}
	return s, nil
}

// buildPool hydrates a full replica set from snap, starts its workers
// with generation gen's views, then releases snap's serialized DAG,
// which nothing reads after hydration. The replicas hydrate
// concurrently: each builds its own manager, and the dump is only read.
// On hydration failure no worker starts and the replicas are garbage.
func (s *Server) buildPool(snap *Snapshot, gen uint64) (*generation, error) {
	p := &pool{jobs: make(chan *job, s.cfg.MaxInFlight)}
	g := &generation{gen: gen, snap: snap, pool: p}
	extra := make(map[string]int, len(snap.domains))
	for _, dm := range snap.domains {
		extra[dm.name] = s.cfg.QueryHeadroom
	}
	reps := make([]*Replica, s.cfg.Replicas)
	errs := make([]error, s.cfg.Replicas)
	var wg sync.WaitGroup
	for i := range reps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reps[i], errs[i] = snap.Hydrate(extra)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("serve: hydrating replica %d: %w", i, err)
		}
	}
	for i, rep := range reps {
		if i == 0 {
			g.val = rep.Base
			g.sh = shapeOf(rep.Base.HasRelation)
		}
		s.replicaGauges(i).push(rep)
		ctl := make(chan func(views))
		p.ctl = append(p.ctl, ctl)
		p.wg.Add(1)
		go s.worker(i, p, ctl, views{gen: rep})
	}
	snap.release()
	return g, nil
}

// close stops the pool's workers once they have taken every job.
func (p *pool) close() {
	close(p.jobs)
	p.wg.Wait()
}

// onWorkers runs f on every worker's goroutine, between its jobs, and
// returns once all have run it. The workers must still run: a pool
// stops only after its last generation has retired (retire, Close).
func (p *pool) onWorkers(f func(i int, v views)) {
	done := make(chan struct{}, len(p.ctl))
	for i, c := range p.ctl {
		c <- func(v views) {
			defer func() { done <- struct{}{} }()
			f(i, v)
		}
	}
	for range p.ctl {
		<-done
	}
}

// dropViews releases generation gen's view on every worker.
func (p *pool) dropViews(gen uint64) {
	p.onWorkers(func(_ int, v views) {
		if rep := v[gen]; rep != nil {
			rep.release()
			delete(v, gen)
		}
	})
}

// acquire pins the serving generation for one request: its views and
// its pool's job channel are guaranteed to stay until the matching
// pending.Done().
func (s *Server) acquire() *generation {
	s.mu.RLock()
	g := s.cur
	g.pending.Add(1)
	s.mu.RUnlock()
	return g
}

// current reads the serving generation for metadata (schema, health,
// fingerprint) without pinning it.
func (s *Server) current() *generation {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.cur
}

// retire drains a swapped-out generation in the background: once the
// last request holding it finishes, its views are dropped (on a pool
// that a patch kept serving) or, when a full publish replaced its pool
// and no other generation of the pool is left, the pool's job channel
// closes and its workers (and their BDD managers) become garbage.
//
// A replaced pool is then collected at once. The full publish built
// the new pool while the old one was still live, so a collection that
// fell inside that window marked both and set the next heap target to
// twice their sum; until the next collection the heap could grow to
// it. Collecting after the old pool is unreachable resets the target
// to twice the one pool that serves. A patched swap leaves no second
// pool, and collecting after each one costs more throughput than the
// memory it saves (EXPERIMENTS.md, "Patched publishes").
func (s *Server) retire(old *generation, replaced bool) {
	s.retired.Add(1)
	go func() {
		defer s.retired.Done()
		old.pending.Wait()
		p := old.pool
		if !replaced {
			p.dropViews(old.gen)
			p.gens.Done()
			return
		}
		p.gens.Done()
		p.gens.Wait()
		p.close()
		old = nil
		runtime.GC()
	}()
}

// Replicas returns the worker-pool size.
func (s *Server) Replicas() int { return s.cfg.Replicas }

// SnapshotNodes returns the BDD node count of the last full snapshot,
// the one the serving replicas were hydrated from; patches since then
// do not change it.
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
		// Wait out an update still publishing; none starts afterwards.
		s.updateMu <- struct{}{}
		g := s.current()
		g.pending.Wait()
		// Retiring generations may still drop views on the serving
		// pool's workers, so they finish before the workers stop.
		s.retired.Wait()
		g.pool.close()
		// Drop the writer's references into the live solver.
		s.dropWriter()
	})
}

// Fingerprint identifies the snapshot the server answers from.
func (s *Server) Fingerprint() string { return s.current().snap.Fingerprint() }

// worker owns one replica for its pool's lifetime: jobs arrive over
// the pool's channel, and patches and view drops over the worker's
// control channel, and all run on this goroutine only, so the
// replica's BDD manager never sees concurrency. A job runs on the view
// of the generation it was admitted under.
func (s *Server) worker(i int, p *pool, ctl <-chan func(views), v views) {
	defer p.wg.Done()
	gauges := s.replicaGauges(i)
	for {
		select {
		case f := <-ctl:
			f(v)
		case j, ok := <-p.jobs:
			if !ok {
				return
			}
			rep := v[j.gen]
			s.runJob(rep, j)
			gauges.push(rep)
		}
	}
}

// replicaGauges are replica i's substrate gauges,
// serve.replica.<i>.*; a worker looks them up once, not per job.
type replicaGauges struct {
	live, produced, gcs, hitRatio, memoNodes *obs.Gauge
}

func (s *Server) replicaGauges(i int) *replicaGauges {
	prefix := fmt.Sprintf("serve.replica.%d.", i)
	return &replicaGauges{
		live:      s.reg.Gauge(prefix + "live_nodes"),
		produced:  s.reg.Gauge(prefix + "produced_nodes"),
		gcs:       s.reg.Gauge(prefix + "gcs"),
		hitRatio:  s.reg.Gauge(prefix + "op_cache_hit_ratio"),
		memoNodes: s.reg.Gauge(prefix + "base_memo_nodes"),
	}
}

// push publishes the replica's BDD substrate state. Only the owning
// worker goroutine calls it (plus once at hydration, before the worker
// starts), so the manager is never read concurrently; the sampler and
// /metrics read the registry, which is safe.
func (g *replicaGauges) push(rep *Replica) {
	m := rep.U.M
	st := m.Stats()
	g.live.Set(float64(m.LiveNodes()))
	g.produced.Set(float64(st.Produced))
	g.gcs.Set(float64(st.GCs))
	total := st.CacheHits + st.CacheMiss
	ratio := 0.0
	if total > 0 {
		ratio = float64(st.CacheHits) / float64(total)
	}
	g.hitRatio.Set(ratio)
	g.memoNodes.Set(float64(rep.Base.MemoNodes()))
}

func (s *Server) runJob(rep *Replica, j *job) {
	defer close(j.done)
	defer resilience.Recover(&j.err)
	ctl := resilience.NewController(j.ctx, resilience.Budget{
		Timeout:      s.cfg.QueryTimeout,
		MaxLiveNodes: s.cfg.QueryMaxNodes,
	})
	ctl.SetTag(j.rid)
	t0 := time.Now()
	res, err := rep.Base.Eval(j.src, datalog.QueryOptions{
		Control:   ctl,
		Tracer:    s.tracer,
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
	// The result is closed before the collection is offered, so the
	// query's relations are garbage it can reclaim; the deferred close
	// also runs when rendering panics.
	func() {
		defer func() {
			res.Close()
			s.gLiveStates.Add(-1)
		}()
		j.body = renderResult(j.src, res, s.cfg.MaxTuples, time.Since(t0))
	}()
	rep.U.M.MaybeGC()
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
	g := s.acquire()
	defer g.pending.Done()
	w.Header().Set("X-Generation", fmt.Sprint(g.gen))
	key := fmt.Sprintf("g%d|%s", g.gen, src)
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
	j := &job{gen: g.gen, ctx: r.Context(), src: src, rid: requestID(w), done: make(chan struct{})}
	select {
	case g.pool.jobs <- j:
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
