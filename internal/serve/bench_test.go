package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"testing"
	"time"

	"bddbddb/internal/analysis"
	"bddbddb/internal/datalog"
	"bddbddb/internal/extract"
	"bddbddb/internal/obs"
	"bddbddb/internal/synth"
)

// benchSolver runs the context-insensitive analysis on the freetts
// synthetic benchmark — a realistic serving workload (hundreds of
// variables) rather than the unit tests' toy program.
func benchSolver(tb testing.TB) (*analysis.Result, []string) {
	tb.Helper()
	prog := synth.Generate(synth.BenchmarkByName("freetts").Params)
	facts, err := extract.Extract(prog, extract.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	res, err := analysis.RunContextInsensitive(facts, true, analysis.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	return res, facts.Vars
}

func benchServer(tb testing.TB, res *analysis.Result, replicas, cacheEntries int) *Server {
	tb.Helper()
	s, err := New(res.Solver, Config{Replicas: replicas, CacheEntries: cacheEntries, MaxInFlight: 256})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(s.Close)
	return s
}

// serveOne drives one request straight through the handler stack
// (recorder, no sockets): both arms of the comparison then measure the
// server's own latency, not identical TCP/loopback overhead.
func serveOne(tb testing.TB, s *Server, path string) {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != 200 {
		tb.Fatalf("%s: %d %s", path, rec.Code, rec.Body.String())
	}
}

func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	i := int(p * float64(len(ds)-1))
	return ds[i]
}

// BenchmarkServeQuery measures end-to-end request latency over real
// HTTP, cold (cache disabled, every request is a BDD evaluation on a
// replica) against cached (every request after the first is an LRU
// lookup), across pool sizes. p50/p99 are reported as extra metrics.
func BenchmarkServeQuery(b *testing.B) {
	res, vars := benchSolver(b)
	for _, mode := range []struct {
		name    string
		entries int
	}{
		{"cold", -1},
		{"cached", 4096},
	} {
		for _, replicas := range []int{1, 4, 8} {
			b.Run(fmt.Sprintf("%s/replicas=%d", mode.name, replicas), func(b *testing.B) {
				srv := benchServer(b, res, replicas, mode.entries)
				if mode.entries > 0 {
					for _, v := range vars {
						serveOne(b, srv, "/aliases?var="+v)
					}
				}
				var mu sync.Mutex
				var lats []time.Duration
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					i := 0
					var local []time.Duration
					for pb.Next() {
						v := vars[i%len(vars)]
						i++
						t0 := time.Now()
						serveOne(b, srv, "/aliases?var="+v)
						local = append(local, time.Since(t0))
					}
					mu.Lock()
					lats = append(lats, local...)
					mu.Unlock()
				})
				b.StopTimer()
				b.ReportMetric(float64(percentile(lats, 0.50).Microseconds()), "p50-µs")
				b.ReportMetric(float64(percentile(lats, 0.99).Microseconds()), "p99-µs")
			})
		}
	}
}

// BenchmarkHeapQueryMiss times the ad-hoc heap query
// q(v) :- vPC(_, v, "h") on one megamek cs replica, rotating over the
// heaps. The literal's constant heap lies below its free variable, so
// it reads the pivoted memo entry of ∃c.vPC.
func BenchmarkHeapQueryMiss(b *testing.B) {
	facts, rep := megamekReplica(b)
	benchMisses(b, rep, func(i int) string {
		return ".relation q (variable : V) output\nq(v) :- vPC(_, v, " + quoted(facts.Heaps[i%len(facts.Heaps)]) + ").\n"
	})
}

// BenchmarkAliasQueryMiss times the canned /aliases query on one
// megamek cs replica, rotating over the variables. Its second literal
// joins on the heap below the free variable, so it reads the pivoted
// memo entry of ∃c.vPC.
func BenchmarkAliasQueryMiss(b *testing.B) {
	facts, rep := megamekReplica(b)
	sh := shapeOf(rep.Base.HasRelation)
	benchMisses(b, rep, func(i int) string {
		src, err := sh.aliasesQuery(facts.Vars[i%len(facts.Vars)])
		if err != nil {
			b.Fatal(err)
		}
		return src
	})
}

// BenchmarkRenderAnswer times renderResult on one large answer:
// megamek's context-projected points-to pairs, a few thousand rows of
// two attributes, rendered whole (the daemon's default MaxTuples).
func BenchmarkRenderAnswer(b *testing.B) {
	_, rep := megamekReplica(b)
	const q = ".relation pt (variable : V, heap : H) output\npt(v, h) :- vPC(_, v, h).\n"
	res, err := rep.Base.Eval(q, datalog.QueryOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer res.Close()
	var body []byte
	b.ResetTimer()
	for range b.N {
		body = renderResult(q, res, 10000, 0)
	}
	b.StopTimer()
	b.ReportMetric(float64(res.Outputs[0].Size().Int64()), "rows")
	b.ReportMetric(float64(len(body)), "bytes")
}

// megamekReplica solves megamek context-sensitively and hydrates one
// replica with the daemon's default query headroom.
func megamekReplica(b *testing.B) (*extract.Facts, *Replica) {
	facts, err := extract.Extract(synth.Generate(synth.BenchmarkByName("megamek").Params), extract.Options{})
	if err != nil {
		b.Fatal(err)
	}
	res, err := analysis.RunContextSensitive(facts, nil, analysis.Config{DomainSlack: 64})
	if err != nil {
		b.Fatal(err)
	}
	return facts, hydrated(b, res)
}

// BenchmarkPublish measures one live update's publish on a megamek cs
// server (two replicas, query headroom 1), once patching the serving
// replicas and once forcing the full path (a full snapshot hydrated
// into a new pool), for one added and for one removed vP0 tuple. An
// add op adds a fresh tuple; a remove op first adds one, untimed, and
// then removes it. publish-ms/op is the update's wall time less its
// incremental solve; deltaNodes/op is the size of the patches' delta
// dumps.
func BenchmarkPublish(b *testing.B) {
	facts, err := extract.Extract(synth.Generate(synth.BenchmarkByName("megamek").Params), extract.Options{})
	if err != nil {
		b.Fatal(err)
	}
	res, err := analysis.RunContextSensitive(facts, nil, analysis.Config{DomainSlack: 64})
	if err != nil {
		b.Fatal(err)
	}
	live, err := analysis.Live(res)
	if err != nil {
		b.Fatal(err)
	}
	reg := obs.New()
	s, err := New(res.Solver, Config{Replicas: 2, QueryHeadroom: 1, Updater: live, Metrics: reg, SampleInterval: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	have := make(map[[2]uint64]bool, len(facts.VP0))
	for _, t := range facts.VP0 {
		have[[2]uint64{t[0], t[1]}] = true
	}
	next := 0
	fresh := func() datalog.WireTuple {
		for ; ; next++ {
			v, h := uint64(len(facts.Vars)-1-next%len(facts.Vars)), uint64(next/len(facts.Vars)%len(facts.Heaps))
			if !have[[2]uint64{v, h}] {
				have[[2]uint64{v, h}] = true
				next++
				return datalog.WireTuple{{Num: v}, {Num: h}}
			}
		}
	}
	apply := func(b *testing.B, full bool, wd datalog.WireDelta) UpdateResult {
		if full {
			s.dropWriter()
		}
		r, err := s.ApplyUpdate(context.Background(), wd)
		if err != nil {
			b.Fatal(err)
		}
		if want := map[bool]string{true: "full", false: "patch"}[full]; r.Publish != want {
			b.Fatalf("publish %q, want %q", r.Publish, want)
		}
		return r
	}
	for _, op := range []string{"add", "remove"} {
		for _, mode := range []string{"patch", "full"} {
			b.Run(mode+"/"+op, func(b *testing.B) {
				full := mode == "full"
				hist := reg.Histogram("serve.update.delta_nodes", obs.SizeBuckets())
				var publish time.Duration
				var patches int64
				var nodes float64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					t := fresh()
					add := datalog.WireDelta{Add: map[string][]datalog.WireTuple{"vP0": {t}}}
					if op == "remove" {
						b.StopTimer()
						apply(b, full, add)
						b.StartTimer()
						add = datalog.WireDelta{Remove: map[string][]datalog.WireTuple{"vP0": {t}}}
					}
					n0, sum0 := hist.Count(), hist.Sum()
					r := apply(b, full, add)
					publish += time.Duration(r.DurationSec*float64(time.Second)) - r.Stats.Duration
					patches += hist.Count() - n0
					nodes += hist.Sum() - sum0
				}
				b.StopTimer()
				b.ReportMetric(float64(publish.Microseconds())/1000/float64(b.N), "publish-ms/op")
				if patches > 0 {
					b.ReportMetric(nodes/float64(patches), "deltaNodes/op")
				}
			})
		}
	}
}

// benchMisses evaluates query(i) on the replica directly, so no result
// cache answers it. One warm-up query fills the replica's memo first;
// fill-ms reports what that cost.
func benchMisses(b *testing.B, rep *Replica, query func(i int) string) {
	eval := func(i int) {
		r, err := rep.Base.Eval(query(i), datalog.QueryOptions{})
		if err != nil {
			b.Fatal(err)
		}
		r.Close()
		rep.U.M.MaybeGC()
	}
	t0 := time.Now()
	eval(0)
	fill := time.Since(t0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eval(i + 1)
	}
	b.StopTimer()
	b.ReportMetric(float64(fill.Microseconds())/1000, "fill-ms")
}

// TestWriteServeBench records the cold/cached serving numbers into
// BENCH_serve.json (the repo's flat metrics format). Gated behind
// BENCH_SERVE_OUT so the regular test run stays fast:
//
//	BENCH_SERVE_OUT=BENCH_serve.json go test ./internal/serve -run TestWriteServeBench
func TestWriteServeBench(t *testing.T) {
	out := os.Getenv("BENCH_SERVE_OUT")
	if out == "" {
		t.Skip("set BENCH_SERVE_OUT=path to record serving benchmarks")
	}
	res, vars := benchSolver(t)

	measure := func(s *Server, rounds int) []time.Duration {
		lats := make([]time.Duration, 0, rounds*len(vars))
		for r := 0; r < rounds; r++ {
			for _, v := range vars {
				t0 := time.Now()
				serveOne(t, s, "/aliases?var="+v)
				lats = append(lats, time.Since(t0))
			}
		}
		return lats
	}
	qps := func(lats []time.Duration) float64 {
		var total time.Duration
		for _, d := range lats {
			total += d
		}
		return float64(len(lats)) / total.Seconds()
	}

	coldSrv := benchServer(t, res, 4, -1)
	cold := measure(coldSrv, 5)

	cachedSrv := benchServer(t, res, 4, 4096)
	measure(cachedSrv, 1) // warm every key
	cached := measure(cachedSrv, 5)

	coldP50 := percentile(cold, 0.50)
	cachedP50 := percentile(cached, 0.50)
	speedup := float64(coldP50) / float64(cachedP50)
	vals := map[string]float64{
		"serve.cold.qps":       qps(cold),
		"serve.cold.p50_us":    float64(coldP50.Microseconds()),
		"serve.cold.p99_us":    float64(percentile(cold, 0.99).Microseconds()),
		"serve.cached.qps":     qps(cached),
		"serve.cached.p50_us":  float64(cachedP50.Microseconds()),
		"serve.cached.p99_us":  float64(percentile(cached, 0.99).Microseconds()),
		"serve.cached.speedup": speedup,
		"serve.replicas":       4,
		"serve.requests":       float64(len(cold) + len(cached)),
	}
	f, err := os.Create(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := obs.WriteMetricsJSON(f, "serve", vals); err != nil {
		t.Fatal(err)
	}
	t.Logf("cold p50 %v, cached p50 %v (%.1fx)", coldP50, cachedP50, speedup)
	if speedup < 10 {
		t.Errorf("cached speedup %.1fx, want >= 10x", speedup)
	}
}

// TestWriteObsBench records the serving percentiles as the daemon
// itself observes them — read back from the serve.latency.* histograms
// the request middleware feeds, not recomputed from caller-side
// stopwatches — into BENCH_obs.json. This exercises the full
// production observability path: middleware → lock-free histogram →
// registry snapshot → percentile estimation. Gated behind
// BENCH_OBS_OUT:
//
//	BENCH_OBS_OUT=BENCH_obs.json go test ./internal/serve -run TestWriteObsBench
func TestWriteObsBench(t *testing.T) {
	out := os.Getenv("BENCH_OBS_OUT")
	if out == "" {
		t.Skip("set BENCH_OBS_OUT=path to record observability benchmarks")
	}
	res, vars := benchSolver(t)

	drive := func(s *Server, rounds int) {
		for r := 0; r < rounds; r++ {
			for _, v := range vars {
				serveOne(t, s, "/aliases?var="+v)
			}
		}
	}
	newServer := func(reg *obs.Metrics, cacheEntries int) *Server {
		s, err := New(res.Solver, Config{
			Replicas: 4, CacheEntries: cacheEntries, MaxInFlight: 256,
			Metrics: reg, SampleInterval: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		return s
	}

	// Cold: cache disabled, every request is a replica evaluation, so
	// every 200 lands in the ...miss histogram.
	coldReg := obs.New()
	drive(newServer(coldReg, -1), 5)

	// Cached: warm every key once, then measure; the measured rounds all
	// land in the ...hit histogram.
	cachedReg := obs.New()
	cachedSrv := newServer(cachedReg, 4096)
	drive(cachedSrv, 6)

	coldVals := coldReg.Snapshot()
	cachedVals := cachedReg.Snapshot()
	const miss = "serve.latency.aliases.ci.miss"
	const hit = "serve.latency.aliases.ci.hit"
	if coldVals[miss+".count"] != float64(5*len(vars)) {
		t.Fatalf("cold miss histogram count = %v, want %d", coldVals[miss+".count"], 5*len(vars))
	}
	if cachedVals[hit+".count"] != float64(5*len(vars)) {
		t.Fatalf("cached hit histogram count = %v, want %d", cachedVals[hit+".count"], 5*len(vars))
	}
	coldP50 := coldVals[miss+".p50"]
	cachedP50 := cachedVals[hit+".p50"]
	if coldP50 <= 0 || cachedP50 <= 0 {
		t.Fatalf("histogram percentiles not recorded: cold p50 %v, cached p50 %v", coldP50, cachedP50)
	}
	vals := map[string]float64{
		"serve.obs.cold.p50_us":     coldP50 * 1e6,
		"serve.obs.cold.p99_us":     coldVals[miss+".p99"] * 1e6,
		"serve.obs.cold.requests":   coldVals[miss+".count"],
		"serve.obs.cached.p50_us":   cachedP50 * 1e6,
		"serve.obs.cached.p99_us":   cachedVals[hit+".p99"] * 1e6,
		"serve.obs.cached.requests": cachedVals[hit+".count"],
		"serve.obs.cached.speedup":  coldP50 / cachedP50,
		"serve.obs.replicas":        4,
	}
	f, err := os.Create(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := obs.WriteMetricsJSON(f, "serve_obs", vals); err != nil {
		t.Fatal(err)
	}
	t.Logf("histogram-path percentiles: cold p50 %.0fµs p99 %.0fµs; cached p50 %.0fµs p99 %.0fµs (%.1fx)",
		vals["serve.obs.cold.p50_us"], vals["serve.obs.cold.p99_us"],
		vals["serve.obs.cached.p50_us"], vals["serve.obs.cached.p99_us"], vals["serve.obs.cached.speedup"])
	if vals["serve.obs.cached.speedup"] < 2 {
		t.Errorf("cached speedup from histograms %.2fx, want >= 2x", vals["serve.obs.cached.speedup"])
	}
}
