package analysis

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"bddbddb/internal/callgraph"
	"bddbddb/internal/datalog"
	"bddbddb/internal/extract"
	"bddbddb/internal/obs"
	"bddbddb/internal/order"
	"bddbddb/internal/resilience"
)

// Config tunes an analysis run.
type Config struct {
	// Tracer receives one span per pipeline phase (CHA, call graph
	// discovery, numbering, materialization, fill, solve) plus the
	// solver's and BDD manager's nested spans. Nil traces nothing.
	Tracer obs.Tracer
	// Metrics, when set, receives the solver's flat summary (solve
	// time, peak live nodes, GC count, per-cache hit ratios, relation
	// cardinalities) at the end of each solve.
	Metrics *obs.Metrics
	// Order overrides the BDD variable order (logical domain names,
	// topmost first). Defaults to the paper-informed order with the
	// context domain on top.
	Order []string
	// NodeSize / CacheSize size the BDD manager (0 = defaults).
	NodeSize, CacheSize int
	// ContextLimit caps the context domain size; contexts beyond it are
	// merged into one, as the paper does beyond 2^63. 0 means 2^62.
	ContextLimit uint64
	// HeapContextLimit caps Algorithm 8's per-site heap cloning: an
	// allocation site whose containing method has more (capped) contexts
	// than the limit gets the single context-insensitive heap clone
	// (hctx 0) instead — the paper's noHeapContext escape hatch for
	// sites that would explode the cloned heap. 0 means unlimited:
	// every non-global site is cloned.
	HeapContextLimit uint64
	// ExtraSrc appends query fragments (Section 5) to the program.
	ExtraSrc string
	// NoIncrementalization disables semi-naive evaluation (ablation).
	NoIncrementalization bool
	// Plan is read by nothing.
	//
	// Deprecated: kept only so existing callers that set it still
	// compile; it is removed with the next benchmark change.
	Plan datalog.PlanConfig
	// Context cancels the run cooperatively: every Run* entry point
	// polls it throughout the pipeline (BDD operations included) and
	// returns a resilience.CancelError once it is done. Nil means
	// context.Background().
	Context context.Context
	// Budget bounds the run's resources (live BDD nodes, wall clock,
	// fixpoint iterations); violations surface as
	// resilience.BudgetError. The zero value is unlimited.
	Budget resilience.Budget
	// PreSolve, when set, runs inside the primary solve after facts are
	// applied and before the first stratum — the hook live updates and
	// their differential oracles use to edit input tuples with exact
	// update semantics. Auxiliary solves never see it.
	PreSolve func(*datalog.Solver) error
	// DomainSlack adds spare capacity to every fact-sized domain so
	// live updates can register new element names (methods, variables)
	// without rebuilding the universe. 0 means exact sizing.
	DomainSlack int

	// ctl is the pipeline's one controller, built by the outermost
	// entry point and shared by every nested phase so budgets are
	// accounted globally rather than per solve.
	ctl *resilience.Controller
}

func (c Config) contextLimit() uint64 {
	if c.ContextLimit == 0 {
		return 1 << 62
	}
	return c.ContextLimit
}

// withControl returns cfg carrying a live controller, building one from
// Context + Budget on first use. Entry points call it before anything
// else; nested Run* calls inherit the already-built controller.
func (c Config) withControl() Config {
	if c.ctl == nil {
		ctx := c.Context
		if ctx == nil {
			ctx = context.Background()
		}
		c.ctl = resilience.NewController(ctx, c.Budget)
	}
	return c
}

// primaryOpts applies the primary-solve-only configuration: the
// PreSolve input-delta hook. Auxiliary solves go through auxConfig,
// which does not carry it.
func (c Config) primaryOpts(opts *datalog.Options) {
	opts.PreSolve = c.PreSolve
}

// auxConfig strips the primary-solve-only settings for an auxiliary
// solve (e.g. call-graph discovery) while keeping the shared controller
// and observability sinks. Order is dropped too: it describes the
// primary program's domains.
func (c Config) auxConfig() Config {
	return Config{
		NodeSize: c.NodeSize, CacheSize: c.CacheSize,
		Tracer: c.Tracer, Metrics: c.Metrics,
		Context: c.Context, Budget: c.Budget, ctl: c.ctl,
	}
}

func (c Config) order(def []string) []string {
	if c.Order != nil {
		return c.Order
	}
	return def
}

// The default variable orders come from internal/order's shipped table
// (found empirically per Section 2.4.2; see order.Default). heapOrder
// groups "C+HC" into one interleaved block — Algorithm 8's hcH diagonal
// needs the arithmetic alignment.
var (
	ciOrder   = order.Default(order.ModeCI)
	csOrder   = order.Default(order.ModeCS)
	ctOrder   = order.Default(order.ModeCT)
	heapOrder = order.Default(order.ModeHeapCS)
)

// Result bundles a finished analysis.
type Result struct {
	Solver    *datalog.Solver
	Facts     *extract.Facts
	Graph     *callgraph.Graph     // the call graph used (nil for Algorithm 3)
	Numbering *callgraph.Numbering // context numbering (context-sensitive runs)

	// Degraded marks a graceful degradation: the context-sensitive
	// analysis ran out of budget (or was canceled) and the result is
	// the context-insensitive approximation (Algorithm 3) instead —
	// still sound, just less precise. DegradedCause holds the typed
	// error that tripped the downgrade.
	Degraded      bool
	DegradedCause error

	threadContexts *ThreadContexts
}

// ThreadContextScheme returns the thread-context assignment of a
// RunThreadEscape result (nil otherwise).
func (r *Result) ThreadContextScheme() *ThreadContexts { return r.threadContexts }

// Stats returns the solver statistics.
func (r *Result) Stats() datalog.SolverStats { return r.Solver.Stats() }

// baseOptions builds solver options with domain sizes and element names
// from the facts.
func baseOptions(f *extract.Facts, cfg Config, order []string) datalog.Options {
	sz := func(n int) uint64 {
		if n < 1 {
			n = 1
		}
		return uint64(n + cfg.DomainSlack)
	}
	return datalog.Options{
		Order:     cfg.order(order),
		NodeSize:  cfg.NodeSize,
		CacheSize: cfg.CacheSize,
		DomainSizes: map[string]uint64{
			"V": sz(len(f.Vars)),
			"H": sz(len(f.Heaps)),
			"F": sz(len(f.Fields)),
			"T": sz(len(f.Types)),
			"I": sz(len(f.Invokes)),
			"N": sz(len(f.Names)),
			"M": sz(len(f.Methods)),
			"Z": f.ZSize,
		},
		ElemNames: map[string][]string{
			"V": f.Vars,
			"H": f.Heaps,
			"F": f.Fields,
			"T": f.Types,
			"I": f.Invokes,
			"N": f.Names,
			"M": f.Methods,
		},
		NoIncrementalization: cfg.NoIncrementalization,
		Tracer:               cfg.Tracer,
		Metrics:              cfg.Metrics,
		Control:              cfg.ctl,
	}
}

// fill loads tuples into a declared relation in one bulk insert.
func fill(s *datalog.Solver, name string, tuples []extract.Tuple) {
	s.Relation(name).AddTuples(rows(tuples))
}

// rows views extracted tuples as the plain rows rel.AddTuples takes.
func rows(tuples []extract.Tuple) [][]uint64 {
	out := make([][]uint64, len(tuples))
	for i, t := range tuples {
		out[i] = t
	}
	return out
}

// fillCommon loads every standard extracted relation the program
// declares (query fragments may pull in cha, mI, mV, syncs, ...).
func fillCommon(s *datalog.Solver, f *extract.Facts) {
	// A fixed order (not a map's) keeps node numbering, and with it
	// every BDD counter, identical from run to run.
	std := []struct {
		name   string
		tuples []extract.Tuple
	}{
		{"vP0", f.VP0},
		{"store", f.Store},
		{"load", f.Load},
		{"vT", f.VT},
		{"hT", f.HT},
		{"aT", f.AT},
		{"cha", f.Cha},
		{"actual", f.Actual},
		{"formal", f.Formal},
		{"IE0", f.IE0},
		{"mI", f.MI},
		{"Mret", f.Mret},
		{"Iret", f.Iret},
		{"mV", f.MV},
		{"syncs", f.Syncs},
	}
	for _, in := range std {
		if s.HasRelation(in.name) {
			fill(s, in.name, in.tuples)
		}
	}
	// Equality diagonals used by negated inequality tests.
	if s.HasRelation("eqT") {
		diag := make([][]uint64, len(f.Types))
		for t := range diag {
			diag[t] = []uint64{uint64(t), uint64(t)}
		}
		s.Relation("eqT").AddTuples(diag)
	}
}

// Algorithms lists the names Run accepts, in usage order.
var Algorithms = []string{"ci", "cif", "otf", "cs", "heap-cs", "type", "threads"}

// Run runs the named analysis: ci (Algorithm 1), cif (Algorithm 2,
// type-filtered), otf (Algorithm 3, on-the-fly call graph), cs
// (Algorithm 5, context-sensitive), heap-cs (Algorithm 8, heap
// cloning), type (Algorithm 6) or threads (Algorithm 7 with escape
// analysis). The context-sensitive ones discover their call graph with
// Algorithm 3 first.
func Run(algo string, f *extract.Facts, cfg Config) (*Result, error) {
	switch algo {
	case "ci":
		return RunContextInsensitive(f, false, cfg)
	case "cif":
		return RunContextInsensitive(f, true, cfg)
	case "otf":
		return RunOnTheFly(f, cfg)
	case "cs":
		return RunContextSensitive(f, nil, cfg)
	case "heap-cs":
		return RunHeapCloned(f, nil, cfg)
	case "type":
		return RunTypeAnalysis(f, nil, cfg)
	case "threads":
		return RunThreadEscape(f, nil, cfg)
	}
	return nil, fmt.Errorf("unknown algorithm %q (want %s)", algo, strings.Join(Algorithms, ", "))
}

// RunContextInsensitive runs Algorithm 1 (typeFilter=false) or
// Algorithm 2 (typeFilter=true) over the CHA-precomputed call graph.
func RunContextInsensitive(f *extract.Facts, typeFilter bool, cfg Config) (_ *Result, err error) {
	cfg = cfg.withControl()
	defer resilience.Recover(&err)
	src := Algorithm1Src
	if typeFilter {
		src = Algorithm2Src
	}
	prog, err := datalog.Parse(src + cfg.ExtraSrc)
	if err != nil {
		return nil, err
	}
	opts := baseOptions(f, cfg, ciOrder)
	cfg.primaryOpts(&opts)
	s, err := compileTraced(prog, opts, cfg.Tracer)
	if err != nil {
		return nil, err
	}
	obs.Begin(cfg.Tracer, "analysis.cha")
	g := CHACallGraph(f)
	obs.End(cfg.Tracer)
	obs.Begin(cfg.Tracer, "analysis.fill")
	fillCommon(s, f)
	fill(s, "assign", AssignEdges(f, g, false))
	obs.End(cfg.Tracer)
	if err := s.Solve(); err != nil {
		return nil, err
	}
	return &Result{Solver: s, Facts: f, Graph: g}, nil
}

// compileTraced wraps solver construction (rule compilation, universe
// finalization) in an "analysis.compile" span.
func compileTraced(prog *datalog.Program, opts datalog.Options, tr obs.Tracer) (*datalog.Solver, error) {
	obs.Begin(tr, "analysis.compile", obs.A("rules", len(prog.Rules)))
	defer obs.End(tr)
	return datalog.NewSolver(prog, opts)
}

// RunOnTheFly runs Algorithm 3: context-insensitive points-to with call
// graph discovery.
func RunOnTheFly(f *extract.Facts, cfg Config) (_ *Result, err error) {
	cfg = cfg.withControl()
	defer resilience.Recover(&err)
	prog, err := datalog.Parse(Algorithm3Src + cfg.ExtraSrc)
	if err != nil {
		return nil, err
	}
	opts := baseOptions(f, cfg, ciOrder)
	cfg.primaryOpts(&opts)
	s, err := compileTraced(prog, opts, cfg.Tracer)
	if err != nil {
		return nil, err
	}
	obs.Begin(cfg.Tracer, "analysis.fill")
	fillCommon(s, f)
	fill(s, "assign0", f.Assign)
	obs.End(cfg.Tracer)
	if err := s.Solve(); err != nil {
		return nil, err
	}
	return &Result{Solver: s, Facts: f}, nil
}

// DiscoverCallGraph runs Algorithm 3 and converts its IE output into a
// call graph — the "pre-computed call graph created, for example, by
// using a context-insensitive points-to analysis" that Algorithm 5
// assumes.
func DiscoverCallGraph(f *extract.Facts, cfg Config) (_ *callgraph.Graph, err error) {
	cfg = cfg.withControl()
	defer resilience.Recover(&err)
	r, err := discoverResult(f, cfg)
	if err != nil {
		return nil, err
	}
	return r.Graph, nil
}

// discoverResult runs Algorithm 3 under an auxiliary config (cfg.Order
// is not forwarded — it describes the context-sensitive program's
// domains, and Algorithm 3 has no C domain) and keeps the whole Result,
// graph attached, so context-sensitive callers can reuse it as their
// degradation fallback.
func discoverResult(f *extract.Facts, cfg Config) (*Result, error) {
	obs.Begin(cfg.Tracer, "analysis.discover")
	defer obs.End(cfg.Tracer)
	r, err := RunOnTheFly(f, cfg.auxConfig())
	if err != nil {
		return nil, err
	}
	r.Graph = GraphFromIE(f, r.Solver.Relation("IE"))
	return r, nil
}

// degrade implements graceful degradation for the context-sensitive
// entry points: when the cloned solve exhausts its budget or is
// canceled, the analysis falls back to the context-insensitive result —
// still sound, just without context distinctions — instead of failing.
// ci is the already-computed Algorithm 3 result when call-graph
// discovery ran (free to reuse); otherwise a fresh bounded-free fallback
// run is attempted. Internal errors and fallback failures propagate the
// original cause.
func degrade(f *extract.Facts, ci *Result, cfg Config, cause error) (*Result, error) {
	if !errors.Is(cause, resilience.ErrBudgetExceeded) && !errors.Is(cause, resilience.ErrCanceled) {
		return nil, cause
	}
	if cfg.Metrics != nil {
		cfg.Metrics.Counter("analysis.degraded").Inc()
	}
	if ci == nil {
		// Detach the fallback from the exhausted budget / canceled
		// context: a degraded answer is only useful if it can finish.
		fb := cfg.auxConfig()
		fb.Context = context.Background()
		fb.Budget = resilience.Budget{}
		fb.ctl = nil
		var err error
		ci, err = RunOnTheFly(f, fb)
		if err != nil {
			return nil, cause
		}
	}
	ci.Degraded = true
	ci.DegradedCause = cause
	return ci, nil
}

// runCloned runs a context-sensitive program (Algorithm 5 or 6) over
// the cloned call graph: Algorithm 4 numbering materialized into IEC
// and hC, then the context-insensitive rules over the expanded graph.
func runCloned(f *extract.Facts, g *callgraph.Graph, cfg Config, src string) (*Result, error) {
	obs.Begin(cfg.Tracer, "analysis.numbering")
	n, err := callgraph.NumberControlled(g, cfg.Tracer, cfg.ctl)
	obs.End(cfg.Tracer)
	if err != nil {
		return nil, err
	}
	prog, err := datalog.Parse(src + cfg.ExtraSrc)
	if err != nil {
		return nil, err
	}
	opts := baseOptions(f, cfg, csOrder)
	cfg.primaryOpts(&opts)
	opts.DomainSizes["C"] = n.ContextDomainSize(cfg.contextLimit())
	s, err := compileTraced(prog, opts, cfg.Tracer)
	if err != nil {
		return nil, err
	}
	obs.Begin(cfg.Tracer, "analysis.materialize")
	err = func() error {
		iecDecl := s.Relation("IEC").Attrs()
		iec, err := n.MaterializeIEC(s.Universe(), "IEC", iecDecl[0], iecDecl[1], iecDecl[2], iecDecl[3])
		if err != nil {
			return err
		}
		s.ReplaceRelation("IEC", iec)
		hcDecl := s.Relation("hC").Attrs()
		hc := n.MaterializeHC(s.Universe(), "hC", hcDecl[0], hcDecl[1], f.AllocMethod)
		s.ReplaceRelation("hC", hc)
		// domC holds every context — programs bind the paper's implicitly
		// universal head contexts against it (Algorithm 6 rule (23), the
		// mod-ref query's mVC base case).
		if s.HasRelation("domC") {
			attr := s.Relation("domC").Attrs()[0]
			s.ReplaceRelation("domC", s.Universe().FullDomain("domC", attr))
		}
		return nil
	}()
	obs.End(cfg.Tracer)
	if err != nil {
		return nil, err
	}
	obs.Begin(cfg.Tracer, "analysis.fill")
	fillCommon(s, f)
	obs.End(cfg.Tracer)
	if err := s.Solve(); err != nil {
		return nil, err
	}
	return &Result{Solver: s, Facts: f, Graph: g, Numbering: n}, nil
}

// RunContextSensitive runs Algorithm 5. When g is nil the call graph is
// discovered first with Algorithm 3. If the context-sensitive solve
// runs out of budget or is canceled, the analysis degrades gracefully:
// the returned Result carries the context-insensitive answer with
// Degraded set (see Result.Degraded).
func RunContextSensitive(f *extract.Facts, g *callgraph.Graph, cfg Config) (_ *Result, err error) {
	cfg = cfg.withControl()
	defer resilience.Recover(&err)
	var ci *Result // Algorithm 3 result, reused on degradation
	if g == nil {
		ci, err = discoverResult(f, cfg)
		if err != nil {
			return nil, fmt.Errorf("analysis: call graph discovery: %w", err)
		}
		g = ci.Graph
	}
	r, err := runCloned(f, g, cfg, Algorithm5Src)
	if err != nil {
		return degrade(f, ci, cfg, err)
	}
	return r, nil
}

// RunContextSensitiveOnTheFly runs the Section 4.2 variant: Algorithm 4
// numbers a conservative CHA call graph, and the context-sensitive
// solve discovers which of its invocation edges are actually live
// (relation IECd) while computing vPC.
func RunContextSensitiveOnTheFly(f *extract.Facts, cfg Config) (_ *Result, err error) {
	cfg = cfg.withControl()
	defer resilience.Recover(&err)
	r, err := runCloned(f, CHACallGraph(f), cfg, Algorithm5OTFSrc)
	if err != nil {
		// No Algorithm 3 result exists here; degrade runs one afresh.
		return degrade(f, nil, cfg, err)
	}
	return r, nil
}

// noHeapContexts computes Algorithm 8's escape-hatch set: true for
// every allocation site that must keep the single context-insensitive
// heap clone — global objects, sites in unreachable methods, and sites
// whose method has more (capped) contexts than cfg.HeapContextLimit.
func noHeapContexts(f *extract.Facts, n *callgraph.Numbering, contextDomainSize uint64, limit uint64) []bool {
	capM := contextDomainSize - 1
	out := make([]bool, len(f.AllocMethod))
	for h, meth := range f.AllocMethod {
		if meth < 0 {
			out[h] = true
			continue
		}
		k := callgraph.CappedCount(n.MethodContexts(meth), capM)
		if k == 0 || (limit > 0 && k > limit) {
			out[h] = true
		}
	}
	return out
}

// runHeapCloned runs Algorithm 8 over the cloned call graph: Algorithm
// 4 numbering materialized into IEC plus the hcH heap-context diagonal,
// then the heap-cloned rules.
func runHeapCloned(f *extract.Facts, g *callgraph.Graph, cfg Config) (*Result, error) {
	obs.Begin(cfg.Tracer, "analysis.numbering")
	n, err := callgraph.NumberControlled(g, cfg.Tracer, cfg.ctl)
	obs.End(cfg.Tracer)
	if err != nil {
		return nil, err
	}
	prog, err := datalog.Parse(Algorithm8Src + cfg.ExtraSrc)
	if err != nil {
		return nil, err
	}
	opts := baseOptions(f, cfg, heapOrder)
	cfg.primaryOpts(&opts)
	cSize := n.ContextDomainSize(cfg.contextLimit())
	opts.DomainSizes["C"] = cSize
	// HC is sized like C: clone hc mirrors context c, with value 0
	// reserved for the context-insensitive clone.
	opts.DomainSizes["HC"] = cSize
	s, err := compileTraced(prog, opts, cfg.Tracer)
	if err != nil {
		return nil, err
	}
	noHeap := noHeapContexts(f, n, cSize, cfg.HeapContextLimit)
	obs.Begin(cfg.Tracer, "analysis.materialize")
	err = func() error {
		iecDecl := s.Relation("IEC").Attrs()
		iec, err := n.MaterializeIEC(s.Universe(), "IEC", iecDecl[0], iecDecl[1], iecDecl[2], iecDecl[3])
		if err != nil {
			return err
		}
		s.ReplaceRelation("IEC", iec)
		hcDecl := s.Relation("hcH").Attrs()
		hch, err := n.MaterializeHeapContexts(s.Universe(), "hcH", hcDecl[0], hcDecl[1], hcDecl[2], f.AllocMethod, noHeap)
		if err != nil {
			return err
		}
		s.ReplaceRelation("hcH", hch)
		if s.HasRelation("domC") {
			attr := s.Relation("domC").Attrs()[0]
			s.ReplaceRelation("domC", s.Universe().FullDomain("domC", attr))
		}
		return nil
	}()
	obs.End(cfg.Tracer)
	if err != nil {
		return nil, err
	}
	obs.Begin(cfg.Tracer, "analysis.fill")
	fillCommon(s, f)
	var nhc [][]uint64
	for h, no := range noHeap {
		if no {
			nhc = append(nhc, []uint64{uint64(h)})
		}
	}
	s.Relation("noHeapContext").AddTuples(nhc)
	obs.End(cfg.Tracer)
	if err := s.Solve(); err != nil {
		return nil, err
	}
	return &Result{Solver: s, Facts: f, Graph: g, Numbering: n}, nil
}

// RunHeapCloned runs Algorithm 8 — context-sensitive points-to with
// heap cloning. When g is nil the call graph is discovered first with
// Algorithm 3. Budget exhaustion and cancellation degrade gracefully to
// the context-insensitive result, exactly like RunContextSensitive.
func RunHeapCloned(f *extract.Facts, g *callgraph.Graph, cfg Config) (_ *Result, err error) {
	cfg = cfg.withControl()
	defer resilience.Recover(&err)
	var ci *Result // Algorithm 3 result, reused on degradation
	if g == nil {
		ci, err = discoverResult(f, cfg)
		if err != nil {
			return nil, fmt.Errorf("analysis: call graph discovery: %w", err)
		}
		g = ci.Graph
	}
	r, err := runHeapCloned(f, g, cfg)
	if err != nil {
		return degrade(f, ci, cfg, err)
	}
	return r, nil
}

// RunTypeAnalysisCI runs the context-insensitive (0-CFA-like) type
// analysis of Section 5.5 over the CHA call graph — the base analysis
// that Algorithm 6 makes context-sensitive by cloning.
func RunTypeAnalysisCI(f *extract.Facts, cfg Config) (_ *Result, err error) {
	cfg = cfg.withControl()
	defer resilience.Recover(&err)
	prog, err := datalog.Parse(TypeAnalysisCISrc + cfg.ExtraSrc)
	if err != nil {
		return nil, err
	}
	opts := baseOptions(f, cfg, ciOrder)
	cfg.primaryOpts(&opts)
	s, err := compileTraced(prog, opts, cfg.Tracer)
	if err != nil {
		return nil, err
	}
	obs.Begin(cfg.Tracer, "analysis.cha")
	g := CHACallGraph(f)
	obs.End(cfg.Tracer)
	obs.Begin(cfg.Tracer, "analysis.fill")
	fillCommon(s, f)
	fill(s, "assign", AssignEdges(f, g, false))
	obs.End(cfg.Tracer)
	if err := s.Solve(); err != nil {
		return nil, err
	}
	return &Result{Solver: s, Facts: f, Graph: g}, nil
}

// RunTypeAnalysis runs Algorithm 6, the context-sensitive type
// analysis. When g is nil the call graph is discovered first.
func RunTypeAnalysis(f *extract.Facts, g *callgraph.Graph, cfg Config) (_ *Result, err error) {
	cfg = cfg.withControl()
	defer resilience.Recover(&err)
	if g == nil {
		g, err = DiscoverCallGraph(f, cfg)
		if err != nil {
			return nil, fmt.Errorf("analysis: call graph discovery: %w", err)
		}
	}
	return runCloned(f, g, cfg, Algorithm6Src)
}
