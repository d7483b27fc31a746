// Command bddbddbd is the query-serving daemon: it runs the pointer
// analysis once at startup, freezes the solved relations into a
// snapshot, hydrates one replica per worker, and serves interactive
// queries over HTTP/JSON until terminated.
//
// Usage:
//
//	bddbddbd [-addr :8077] [-algo ci|cif|cs|heap-cs] [-replicas N] (-synth NAME | program.jp)
//
// The input program comes from a synthetic benchmark (-synth quick, or
// any name from the Figure 3 suite) or a .jp file argument. -algo
// names the analysis as in cmd/pointsto: cs (default) runs the
// cloning-based context-sensitive analysis with on-the-fly call graph
// discovery; ci and cif run the context-insensitive one without and
// with type filtering (Algorithms 1 and 2); heap-cs runs Algorithm 8's
// heap-cloned analysis, which makes the canned /pointsto and /aliases
// templates heap-sensitive (answers distinguish the per-context clones
// of each allocation site). Startup resilience flags (-timeout,
// -max-nodes) bound the initial solve; if the context-sensitive solve
// exhausts its budget the daemon degrades to the context-insensitive
// result and reports degraded:true in /healthz.
//
// Endpoints:
//
//	GET  /pointsto?var=NAME   heap objects the variable may point to
//	GET  /aliases?var=NAME    variables that may alias it
//	GET  /whodunnit?heap=NAME stores that may have written a reference
//	                          to the heap object (with contexts when
//	                          the analysis is context-sensitive)
//	POST /query               ad-hoc Datalog (raw text or {"query":...})
//	POST /update              live input-tuple delta (JSON add/remove
//	                          sets); incrementally re-solves, cuts a new
//	                          snapshot generation and hot-swaps it in
//	                          with zero downtime
//	GET  /schema              domains and relation schemas, plus the
//	                          update delta wire format
//	GET  /healthz             liveness, replicas, build info, snapshot
//	                          fingerprint, degraded flag
//	GET  /metrics             obs metrics snapshot as JSON; Prometheus
//	                          text format with Accept: text/plain or
//	                          ?format=prom
//	GET  /debug/timeseries    the background sampler's ring of substrate
//	                          gauges (BDD nodes per replica, Go runtime)
//
// Every request gets an X-Request-Id (the client's, when sent) echoed
// in the response and stamped into error bodies; -access-log writes one
// JSON line per request carrying it. Query failures map to HTTP
// statuses: 400 malformed query, 422 well-formed but not evaluable
// here, 429 per-request budget exhausted
// (-query-timeout/-query-max-nodes), 503 shed under load or draining.
// SIGINT/SIGTERM drains gracefully: in-flight queries finish (up to
// -grace), new ones get 503. POST /update is the only way to change the
// served facts; each update is bounded by
// -update-timeout/-update-max-nodes, and when the incremental path
// exhausts the budget the update is re-run unbudgeted, recomputing
// every stratum it reaches. Any update failure rolls back completely —
// the previous generation keeps serving.
//
// Each observation has one sink: spans go to -trace (with -replicas 1,
// each query's solve spans too), per-request records to -access-log,
// counters to /metrics and -metrics, and the substrate gauges' recent
// history to /debug/timeseries; -progress is the live stderr view. The
// result cache's byte bound and entry lifetime, the query strata limit
// and the sampler period take serve.Config's defaults.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"bddbddb/internal/analysis"
	"bddbddb/internal/extract"
	"bddbddb/internal/obs"
	"bddbddb/internal/program"
	"bddbddb/internal/resilience"
	"bddbddb/internal/serve"
	"bddbddb/internal/synth"
)

func main() {
	addr := flag.String("addr", ":8077", "listen address")
	algo := flag.String("algo", "cs", "analysis to serve: "+strings.Join(servable, "|"))
	synthName := flag.String("synth", "", "generate the input program from the named synthetic benchmark (e.g. quick)")
	replicas := flag.Int("replicas", runtime.GOMAXPROCS(0), "snapshot replicas / worker goroutines")
	headroom := flag.Int("query-headroom", 1, "extra physical instances per domain for ad-hoc query variables")
	cacheEntries := flag.Int("cache-entries", 1024, "result cache capacity in entries (-1 disables caching)")
	maxInFlight := flag.Int("max-inflight", 0, "admission limit; excess requests are shed with 503 (0 = 2×replicas)")
	queryTimeout := flag.Duration("query-timeout", 5*time.Second, "per-request evaluation budget (429 when exceeded)")
	queryMaxNodes := flag.Int("query-max-nodes", 0, "per-request live BDD node budget (0 = unlimited)")
	maxTuples := flag.Int("max-tuples", 10000, "max tuples rendered per output relation (count stays exact)")
	grace := flag.Duration("grace", 10*time.Second, "shutdown grace period for in-flight requests")
	accessLog := flag.String("access-log", "", "append one JSON line per request to this file (\"-\" = stderr)")
	updateSlack := flag.Int("update-slack", 64, "spare domain capacity for element names arriving in live updates")
	updateTimeout := flag.Duration("update-timeout", 2*time.Minute, "per-update budget before degrading to an unbudgeted recompute of the affected strata")
	updateMaxNodes := flag.Int("update-max-nodes", 0, "per-update live BDD node budget (0 = unlimited)")
	var oflags obs.Flags
	oflags.Register(flag.CommandLine)
	var rflags resilience.Flags
	rflags.Register(flag.CommandLine)
	flag.Parse()
	if (*synthName == "") == (flag.NArg() != 1) {
		fmt.Fprintln(os.Stderr, "usage: bddbddbd [flags] (-synth NAME | program.jp)")
		flag.Usage()
		os.Exit(2)
	}
	sess, err := oflags.Start("bddbddbd")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bddbddbd:", err)
		os.Exit(1)
	}
	var alog io.Writer
	var alogFile *os.File
	switch {
	case *accessLog == "-":
		alog = os.Stderr
	case *accessLog != "":
		alogFile, err = os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bddbddbd: -access-log:", err)
			os.Exit(1)
		}
		alog = alogFile
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	status := run(ctx, sess, rflags, config{
		addr: *addr, algo: *algo, synthName: *synthName,
		grace: *grace, updateSlack: *updateSlack,
		serve: serve.Config{
			UpdateTimeout:  *updateTimeout,
			UpdateMaxNodes: *updateMaxNodes,
			Replicas:       *replicas,
			QueryHeadroom:  *headroom,
			CacheEntries:   *cacheEntries,
			MaxInFlight:    *maxInFlight,
			QueryTimeout:   *queryTimeout,
			QueryMaxNodes:  *queryMaxNodes,
			MaxTuples:      *maxTuples,
			Metrics:        sess.Metrics,
			Tracer:         sess.Tracer,
			AccessLog:      alog,
		},
	})
	stop()
	if alogFile != nil {
		if err := alogFile.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "bddbddbd: -access-log:", err)
		}
	}
	if err := sess.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "bddbddbd:", err)
		if status == 0 {
			status = 1
		}
	}
	os.Exit(status)
}

// servable lists the analysis.Run names the daemon serves.
var servable = []string{"ci", "cif", "cs", "heap-cs"}

type config struct {
	addr, algo, synthName string
	grace                 time.Duration
	updateSlack           int
	serve                 serve.Config
}

func run(ctx context.Context, sess *obs.Session, rflags resilience.Flags, cfg config) int {
	// BDDBDDBD_FAULT=<point> arms a one-shot panic at the named
	// resilience fault point (update.apply, update.resolve,
	// snapshot.hydrate, snapshot.swap, ...). CI's update smoke uses it
	// to prove a mid-update failure rolls back cleanly and the daemon
	// keeps serving; one-shot so the retry can then succeed.
	if fp := os.Getenv("BDDBDDBD_FAULT"); fp != "" {
		var fired atomic.Bool
		resilience.SetFaultHook(func(name string) {
			if name == fp && fired.CompareAndSwap(false, true) {
				panic("injected fault at " + name)
			}
		})
	}
	if !slices.Contains(servable, cfg.algo) {
		return fail(fmt.Errorf("unknown -algo %q (want %s)", cfg.algo, strings.Join(servable, ", ")))
	}
	prog, err := loadProgram(cfg.synthName)
	if err != nil {
		return fail(err)
	}
	facts, err := extract.Extract(prog, extract.Options{})
	if err != nil {
		return fail(err)
	}
	acfg := analysis.Config{
		Tracer:      sess.Tracer,
		Metrics:     sess.Metrics,
		Context:     ctx,
		Budget:      rflags.Budget(),
		DomainSlack: cfg.updateSlack,
	}
	fmt.Fprintf(os.Stderr, "bddbddbd: solving (%s, %d vars, %d heap objects)...\n",
		cfg.algo, len(facts.Vars), len(facts.Heaps))
	t0 := time.Now()
	res, err := analysis.Run(cfg.algo, facts, acfg)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(os.Stderr, "bddbddbd: solved in %v%s\n", time.Since(t0).Round(time.Millisecond),
		map[bool]string{true: " (degraded to context-insensitive)", false: ""}[res.Degraded])
	for _, sch := range res.Schemas() {
		fmt.Fprintf(os.Stderr, "bddbddbd:   %s %v (%s)\n", sch.Name, sch.Attrs, sch.Kind)
	}

	cfg.serve.Degraded = res.Degraded
	live, err := analysis.Live(res)
	if err != nil {
		return fail(err)
	}
	cfg.serve.Updater = live
	srv, err := serve.New(res.Solver, cfg.serve)
	if err != nil {
		return fail(err)
	}

	hs := &http.Server{Addr: cfg.addr, Handler: srv}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "bddbddbd: serving on %s with %d replicas (%d BDD nodes each, snapshot %s)\n",
		cfg.addr, srv.Replicas(), srv.SnapshotNodes(), srv.Fingerprint())

	select {
	case err := <-errc:
		srv.Close()
		return fail(err)
	case <-ctx.Done():
	}
	// Graceful drain: stop admitting, let in-flight requests finish,
	// then stop the workers. Close must follow Shutdown — workers may
	// not be stopped while the HTTP layer can still dispatch to them.
	fmt.Fprintln(os.Stderr, "bddbddbd: draining...")
	srv.BeginDrain()
	sctx, cancel := context.WithTimeout(context.Background(), cfg.grace)
	err = hs.Shutdown(sctx)
	cancel()
	srv.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bddbddbd: shutdown:", err)
		return 1
	}
	fmt.Fprintln(os.Stderr, "bddbddbd: bye")
	return 0
}

func loadProgram(synthName string) (*program.Program, error) {
	if synthName != "" {
		if synthName == "quick" {
			return synth.Generate(synth.Quick), nil
		}
		b := synth.BenchmarkByName(synthName)
		if b == nil {
			return nil, fmt.Errorf("unknown synthetic benchmark %q", synthName)
		}
		return synth.Generate(b.Params), nil
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		return nil, err
	}
	return program.Parse(string(src))
}

func fail(err error) int {
	if errors.Is(err, http.ErrServerClosed) {
		return 0
	}
	fmt.Fprintln(os.Stderr, "bddbddbd:", err)
	return resilience.ExitCode(err)
}
