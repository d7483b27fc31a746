package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"bddbddb/internal/analysis"
	"bddbddb/internal/datalog"
	"bddbddb/internal/extract"
	"bddbddb/internal/obs"
	"bddbddb/internal/resilience"
	"bddbddb/internal/serve"
)

// Traffic shape. The repository records no daemon traffic (its serving
// benchmarks replay one /aliases request per variable), so the mix,
// the skew and the update cadence below are assumptions; perfbench/
// LAYERS.md lists them and the metrics that depend on them. What does
// have a source says so.
const (
	// cacheEntries is bddbddbd's -cache-entries default.
	cacheEntries = 1024
	// keyPool variables per canned kind and heapPool heaps for ad-hoc
	// queries: assumed multiples of the cache, so the key space (9x
	// the cache) exceeds it and both hits and misses matter.
	keyPool  = 4 * cacheEntries
	heapPool = cacheEntries
	poolSeed = 1
	// zipfS skews key popularity (assumed).
	zipfS = 1.1
	// Request mix in percent (assumed): canned /pointsto, canned
	// /aliases, the rest ad-hoc POST /query.
	pctPointsTo = 45
	pctAliases  = 35
	// deltaTuples is the size of each update: one add-only tuple, the
	// smallest delta (d1) of BENCH_incremental.json. It goes to vP0
	// (assumed: that benchmark draws from five input relations; vP0 is
	// one of them and the one README.md's live-update example adds to).
	deltaTuples = 1
	// serve-mixed: client 0 sends POST /update before every
	// serveUpdateEvery-th request of its own sequence (assumed; chosen
	// so updates run beside a small share of the query phase);
	// serveUpdates caps the seeded stream, of which a run sends 6-9.
	serveUpdateEvery = 2500
	serveUpdates     = 64
	// probeUpdates are sent after a batch workload's read-only query
	// phase in traced runs only, to measure the update layer.
	probeUpdates = 2
	// minQueries keeps the query phase going past its deadline until
	// p99 has at least ten samples beyond it.
	minQueries = 2000
	// warmup runs the traffic unmeasured before the query phase.
	warmup = time.Second
	// window is the unit of the query phase's throughput samples.
	window = time.Second
	// sampleEvery keeps every n-th response of each client for the
	// answer check.
	sampleEvery = 8
)

type loadSpec struct {
	duration time.Duration
	// updateEvery > 0: client 0 sends POST /update before every
	// updateEvery-th request of its own (serve-mixed). 0: the query
	// phase is read-only; a traced run then probes the update path
	// once the phase has ended.
	updateEvery int
}

// timedUpdater is the daemon's live solver with Begin timed from
// outside: it records each update's incremental re-solve time.
type timedUpdater struct {
	*datalog.LiveSolver
	mu    sync.Mutex
	stats []datalog.UpdateStats
}

func (u *timedUpdater) Begin(ctl *resilience.Controller, wd datalog.WireDelta) (datalog.UpdateStats, error) {
	st, err := u.LiveSolver.Begin(ctl, wd)
	if err == nil {
		u.mu.Lock()
		u.stats = append(u.stats, st)
		u.mu.Unlock()
	}
	return st, err
}

// startedServer is an in-process daemon on a loopback listener.
type startedServer struct {
	res   *analysis.Result
	f     *extract.Facts
	pairs map[[2]uint64]bool // the frozen solver's projected pairs
	upd   *timedUpdater
	srv   *serve.Server
	hs    *http.Server
	done  chan error
	url   string
	newD  time.Duration
}

// daemonServeConfig mirrors bddbddbd's flag defaults. The recorder
// gets the serve layer's events only with several replicas, where the
// layer sends instants alone: with one replica it traces each query's
// solve from the worker goroutine, beside the update handler's spans,
// which one span stack cannot hold apart.
func (b *bench) daemonServeConfig(u serve.Updater) serve.Config {
	replicas := runtime.GOMAXPROCS(0)
	var tr obs.Tracer
	if replicas > 1 {
		tr = b.tracer()
	}
	return serve.Config{
		Replicas:       replicas,
		QueryHeadroom:  1,
		CacheEntries:   cacheEntries,
		CacheBytes:     4 << 20,
		CacheTTL:       5 * time.Minute,
		QueryTimeout:   5 * time.Second,
		MaxTuples:      10000,
		MaxStrata:      1,
		Metrics:        obs.New(),
		Tracer:         tr,
		SampleInterval: time.Second,
		Updater:        u,
		UpdateTimeout:  2 * time.Minute,
	}
}

// startServer wraps a solved result in the live-update lifecycle,
// snapshots and hydrates it (serve.New) and serves it on loopback.
func (b *bench) startServer(res *analysis.Result, f *extract.Facts) (*startedServer, error) {
	live, err := analysis.Live(res)
	if err != nil {
		return nil, err
	}
	sv := &startedServer{res: res, f: f, upd: &timedUpdater{LiveSolver: live}, done: make(chan error, 1)}
	sv.newD, err = span(b.tr, "serve.New", func() (err error) {
		sv.srv, err = serve.New(res.Solver, b.daemonServeConfig(sv.upd))
		return err
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sv.srv.Close()
		return nil, err
	}
	sv.url = "http://" + ln.Addr().String()
	sv.hs = &http.Server{Handler: sv.srv}
	go func() { sv.done <- sv.hs.Serve(ln) }()
	return sv, nil
}

// close drains like bddbddbd on SIGTERM and waits for the listener
// goroutine and the workers to exit.
func (sv *startedServer) close() {
	sv.srv.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	sv.hs.Shutdown(ctx)
	cancel()
	<-sv.done
	sv.srv.Close()
}

type sample struct {
	kind, key int
	gen       int
	body      []byte
}

type updateOut struct {
	rtt      time.Duration
	duration float64 // ApplyUpdate wall time reported by the daemon
	tuples   [][]uint64
}

type clientOut struct {
	lat       []float64 // ms
	at        []float64 // completion, seconds into the query phase
	hit       []bool
	samples   []sample
	updates   []updateOut
	attempted int
	failed    int
}

const (
	kindPointsTo = iota
	kindAliases
	kindAdHoc
)

// traffic is the seeded request universe: key pools and the fixed
// update deltas.
type traffic struct {
	vars, heaps []int
	deltas      [][][]uint64 // per update: the (v, h) vP0 tuples to add
}

// uniqueNames returns the indices of names that occur once and that a
// query can quote, and how many names were left out as unaddressable.
func uniqueNames(names []string) ([]int, int) {
	seen := make(map[string]int, len(names))
	for _, n := range names {
		seen[n]++
	}
	var out []int
	unaddressable := 0
	for i, n := range names {
		switch {
		case !exprName(n):
			unaddressable++
		case seen[n] == 1:
			out = append(out, i)
		}
	}
	return out, unaddressable
}

// pickPool shuffles cand and splits off its first n as the pool.
func pickPool(rng *rand.Rand, cand []int, n int) (pool, rest []int) {
	rng.Shuffle(len(cand), func(i, j int) { cand[i], cand[j] = cand[j], cand[i] })
	if len(cand) <= n {
		return cand, cand
	}
	return cand[:n], cand[n:]
}

func (b *bench) newTraffic(f *extract.Facts, updates int) *traffic {
	// The key pools and their popularity ranks are the same in every
	// run, so every seed samples one request distribution; the seed
	// picks the request sequences and the update deltas. The deltas
	// draw from the names outside the pools, so which tuples a seed adds
	// does not decide how large the queried answers grow.
	pools := rand.New(rand.NewSource(poolSeed))
	vars, uv := uniqueNames(f.Vars)
	heaps, uh := uniqueNames(f.Heaps)
	b.note("unaddressable_names", map[string]int{"V": uv, "H": uh})
	t := &traffic{}
	var restVars, restHeaps []int
	t.vars, restVars = pickPool(pools, vars, keyPool)
	t.heaps, restHeaps = pickPool(pools, heaps, heapPool)
	rng := rand.New(rand.NewSource(b.seed))
	have := make(map[[2]uint64]bool, len(f.VP0))
	for _, tp := range f.VP0 {
		have[[2]uint64{tp[0], tp[1]}] = true
	}
	for k := 0; k < updates; k++ {
		var d [][]uint64
		for len(d) < deltaTuples {
			p := [2]uint64{uint64(restVars[rng.Intn(len(restVars))]), uint64(restHeaps[rng.Intn(len(restHeaps))])}
			if !have[p] {
				have[p] = true
				d = append(d, []uint64{p[0], p[1]})
			}
		}
		t.deltas = append(t.deltas, d)
	}
	return t
}

// runLoad drives the served result with nproc closed-loop clients,
// each on one keep-alive loopback connection, then checks sampled
// answers (and, after in-phase updates, the post-update state against
// a from-scratch solve) and reports the serving metrics.
func (b *bench) runLoad(sv *startedServer, spec loadSpec) error {
	if sv.pairs == nil {
		sv.pairs = sv.res.PointsToPairs()
	}
	f := sv.f
	deltas := 0
	switch {
	case spec.updateEvery > 0:
		deltas = serveUpdates
	case b.tr != nil:
		deltas = probeUpdates
	}
	tf := b.newTraffic(f, deltas)
	if b.tr != nil {
		if err := b.probeSnapshot(sv); err != nil {
			return err
		}
	}
	b.setLayer("serve.snapshot_nodes", "count", float64(sv.srv.SnapshotNodes()))
	b.setLayer("serve.new_ms", "ms", float64(sv.newD.Microseconds())/1000)

	// Collect the garbage the analysis left behind so the query phase
	// does not pay for it, and let every client warm its connection and
	// the replicas' caches before the measurement starts.
	fresh()
	clients := runtime.NumCPU()
	outs := make([]clientOut, clients+1)
	var completed atomic.Int64
	t0 := time.Now()
	var inner0 time.Duration
	if b.tr != nil {
		inner0 = b.tr.closedTopLevel()
	}
	start := t0.Add(warmup)
	deadline := start.Add(spec.duration)
	hardStop := start.Add(3 * spec.duration)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			outs[c] = b.client(c, sv, tf, spec, start, deadline, hardStop, &completed)
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if b.tr != nil {
		// The update handlers' spans ran on their own goroutines, so the
		// query phase is recorded beside the stack, not on it.
		b.tr.record("load.queries", time.Since(t0), b.tr.closedTopLevel()-inner0)
		if spec.updateEvery == 0 {
			hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}
			for _, d := range tf.deltas {
				b.update(hc, sv, d, &outs[clients])
			}
			hc.CloseIdleConnections()
		}
	}
	sv.close()

	var lat, hitLat, missLat []float64
	var samples []sample
	var updates []updateOut
	windows := make([]int, int(min(elapsed, spec.duration)/window))
	for _, o := range outs {
		b.attempted += o.attempted
		b.failed += o.failed
		for i, l := range o.lat {
			lat = append(lat, l)
			if w := int(o.at[i] / window.Seconds()); w < len(windows) {
				windows[w]++
			}
			if o.hit[i] {
				hitLat = append(hitLat, l)
			} else {
				missLat = append(missLat, l)
			}
		}
		samples = append(samples, o.samples...)
		updates = append(updates, o.updates...)
	}
	b.check(len(lat) >= 1000, "only %d queries completed; p99 needs 1000", len(lat))
	// Latency statistics are over every request of the query phase.
	// The tail is the mean of the slowest tenth: high percentiles sit
	// where slow kinds of request (large answers, replica collections)
	// begin, and jump when their share moves by a point. Throughput is
	// the median over one-second windows, so a second stalled by a
	// replica's BDD collection moves it by one rank.
	var rates []float64
	for _, n := range windows {
		rates = append(rates, float64(n)/window.Seconds())
	}
	b.setE2E("query_p50_ms", "ms", quantile(lat, 0.5))
	b.setE2E("query_tail_ms", "ms", tailMean(lat, 0.9))
	b.setE2E("queries_per_s", "1/s", median(rates))
	b.setLayer("serve.query_p95_ms", "ms", quantile(lat, 0.95))
	b.setLayer("serve.query_p99_ms", "ms", quantile(lat, 0.99))
	b.note("queries", len(lat))
	b.note("query_windows", len(windows))
	b.note("updates", len(updates))
	b.setLayer("serve.cache.hit_ratio", "ratio", float64(len(hitLat))/float64(max(len(lat), 1)))
	b.setLayer("serve.query_hit_p50_ms", "ms", quantile(hitLat, 0.5))
	b.setLayer("serve.query_miss_p50_ms", "ms", quantile(missLat, 0.5))

	var rtts, incr, publish []float64
	incremental := 0
	sv.upd.mu.Lock()
	stats := sv.upd.stats
	sv.upd.mu.Unlock()
	for i, u := range updates {
		rtts = append(rtts, float64(u.rtt.Microseconds())/1000)
		if i < len(stats) {
			inc := float64(stats[i].Duration.Microseconds()) / 1000
			incr = append(incr, inc)
			publish = append(publish, u.duration*1000-inc)
			if !stats[i].Full {
				incremental++
			}
		}
	}
	b.check(deltas == 0 || len(updates) > 0, "no update completed")
	if len(updates) > 0 {
		b.setLayer("serve.update_p50_ms", "ms", median(rtts))
		b.setLayer("datalog.update_ms", "ms", median(incr))
		b.setLayer("serve.publish_ms", "ms", median(publish))
		b.setLayer("serve.update.incremental_frac", "ratio", float64(incremental)/float64(len(updates)))
	}

	_, err := span(b.tr, "check.answers", func() error {
		final := (&analysis.Result{Solver: sv.upd.Solver()}).PointsToPairs()
		b.checkSamples(f, tf, samples, sv.pairs, final)
		if spec.updateEvery > 0 {
			return b.checkFromScratch(sv, updates)
		}
		return nil
	})
	return err
}

// probeSnapshot times the serve layer's two start-up steps from
// outside (traced runs only): NewSnapshot of the solved result and
// one Hydrate with the daemon's query headroom.
func (b *bench) probeSnapshot(sv *startedServer) error {
	var snap *serve.Snapshot
	ds, err := span(b.tr, "serve.NewSnapshot", func() (err error) {
		snap, err = serve.NewSnapshot(sv.res.Solver)
		return err
	})
	if err != nil {
		return err
	}
	extra := map[string]int{}
	for _, d := range sv.res.Solver.Universe().Domains() {
		extra[d.Name] = 1
	}
	dh, err := span(b.tr, "Snapshot.Hydrate", func() error {
		_, err := snap.Hydrate(extra)
		return err
	})
	if err != nil {
		return err
	}
	b.setLayer("serve.snapshot_ms", "ms", float64(ds.Microseconds())/1000)
	b.setLayer("serve.hydrate_ms", "ms", float64(dh.Microseconds())/1000)
	b.setLayer("serve.snapshot_bytes", "bytes", float64(snap.Bytes()))
	return nil
}

// client is one closed-loop client: it sends its next request only
// after the previous one completes.
func (b *bench) client(id int, sv *startedServer, tf *traffic, spec loadSpec, measureFrom, deadline, hardStop time.Time, completed *atomic.Int64) clientOut {
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}}
	defer hc.CloseIdleConnections()
	rng := rand.New(rand.NewSource(b.seed*1000 + int64(id) + 1))
	zv := rand.NewZipf(rng, zipfS, 1, uint64(len(tf.vars)-1))
	zh := rand.NewZipf(rng, zipfS, 1, uint64(len(tf.heaps)-1))
	var o clientOut
	nextUpdate := 0
	for i := 0; ; i++ {
		now := time.Now()
		if now.After(hardStop) || (now.After(deadline) && completed.Load() >= minQueries) {
			return o
		}
		if id == 0 && spec.updateEvery > 0 && i > 0 && i%spec.updateEvery == 0 && nextUpdate < len(tf.deltas) {
			b.update(hc, sv, tf.deltas[nextUpdate], &o)
			nextUpdate++
		}
		var req *http.Request
		var key int
		kind := kindPointsTo
		switch r := rng.Intn(100); {
		case r < pctPointsTo:
			key = int(zv.Uint64())
			req, _ = http.NewRequest(http.MethodGet, sv.url+"/pointsto?var="+url.QueryEscape(sv.f.Vars[tf.vars[key]]), nil)
		case r < pctPointsTo+pctAliases:
			kind = kindAliases
			key = int(zv.Uint64())
			req, _ = http.NewRequest(http.MethodGet, sv.url+"/aliases?var="+url.QueryEscape(sv.f.Vars[tf.vars[key]]), nil)
		default:
			kind = kindAdHoc
			key = int(zh.Uint64())
			q := fmt.Sprintf(".relation q (variable : V) output\nq(v) :- vPC(_, v, %q).\n", sv.f.Heaps[tf.heaps[key]])
			req, _ = http.NewRequest(http.MethodPost, sv.url+"/query", bytes.NewBufferString(q))
		}
		o.attempted++
		t0 := time.Now()
		resp, err := hc.Do(req)
		if err != nil {
			o.failed++
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		ms := float64(time.Since(t0).Nanoseconds()) / 1e6
		if err != nil || resp.StatusCode != http.StatusOK {
			o.failed++
			if o.failed <= 3 {
				fmt.Fprintf(os.Stderr, "perfbench: %s -> %d %.200s\n", req.URL.String(), resp.StatusCode, body)
			}
			continue
		}
		if t0.Before(measureFrom) {
			continue
		}
		completed.Add(1)
		o.lat = append(o.lat, ms)
		o.at = append(o.at, time.Since(measureFrom).Seconds())
		o.hit = append(o.hit, resp.Header.Get("X-Cache") == "hit")
		if i%sampleEvery == 0 {
			gen, _ := strconv.Atoi(resp.Header.Get("X-Generation"))
			o.samples = append(o.samples, sample{kind: kind, key: key, gen: gen, body: body})
		}
	}
}

// update sends one add-only vP0 delta as POST /update. It fails unless
// the daemon applied both tuples on the incremental path.
func (b *bench) update(hc *http.Client, sv *startedServer, tuples [][]uint64, o *clientOut) {
	wd := datalog.WireDelta{Add: map[string][]datalog.WireTuple{}}
	for _, t := range tuples {
		wd.Add["vP0"] = append(wd.Add["vP0"], datalog.WireTuple{
			{Name: sv.f.Vars[t[0]], Named: true}, {Name: sv.f.Heaps[t[1]], Named: true},
		})
	}
	body, _ := json.Marshal(wd)
	o.attempted++
	t0 := time.Now()
	resp, err := hc.Post(sv.url+"/update", "application/json", bytes.NewReader(body))
	if err != nil {
		o.failed++
		return
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rtt := time.Since(t0)
	var ur struct {
		Stats struct {
			Added int64 `json:"added"`
			Full  bool  `json:"full"`
		} `json:"stats"`
		DurationSec float64 `json:"duration_sec"`
	}
	if err != nil || resp.StatusCode != http.StatusOK || json.Unmarshal(raw, &ur) != nil ||
		ur.Stats.Full || ur.Stats.Added != int64(len(tuples)) {
		o.failed++
		return
	}
	o.updates = append(o.updates, updateOut{rtt: rtt, duration: ur.DurationSec, tuples: tuples})
}
