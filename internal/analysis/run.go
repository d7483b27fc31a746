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

// auxConfig strips the primary-solve-only settings (PreSolve, ExtraSrc,
// DomainSlack) for an auxiliary solve (e.g. call-graph discovery) while
// keeping the shared controller and observability sinks. Order is
// dropped too: it describes the primary program's domains.
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
// groups "C+HC" into one interleaved block — Algorithm 8's vcH diagonal
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
}

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
		Tracer:  cfg.Tracer,
		Metrics: cfg.Metrics,
		Control: cfg.ctl,
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
	if typeFilter {
		return runCHA(f, cfg, Algorithm2Src)
	}
	return runCHA(f, cfg, Algorithm1Src)
}

// solveProgram is the one pipeline step every algorithm runs: parse
// src plus the query fragments, compile it with domains sized from the
// facts (sizes adds or overrides domains the facts do not size), let
// materialize replace the cloned inputs (nil for programs without
// any), load the extracted relations plus fillExtra's, and solve.
// Compile, materialize and fill each have their own analysis.* span.
func solveProgram(f *extract.Facts, cfg Config, src string, order []string, sizes map[string]uint64,
	materialize func(*datalog.Solver) error, fillExtra func(*datalog.Solver)) (*datalog.Solver, error) {
	prog, err := datalog.Parse(src + cfg.ExtraSrc)
	if err != nil {
		return nil, err
	}
	opts := baseOptions(f, cfg, order)
	opts.PreSolve = cfg.PreSolve
	for d, n := range sizes {
		opts.DomainSizes[d] = n
	}
	var s *datalog.Solver
	if err := phase(cfg.Tracer, "analysis.compile", func() (err error) {
		s, err = datalog.NewSolver(prog, opts)
		return err
	}, obs.A("rules", len(prog.Rules))); err != nil {
		return nil, err
	}
	if materialize != nil {
		if err := phase(cfg.Tracer, "analysis.materialize", func() error { return materialize(s) }); err != nil {
			return nil, err
		}
	}
	phase(cfg.Tracer, "analysis.fill", func() error {
		fillCommon(s, f)
		if fillExtra != nil {
			fillExtra(s)
		}
		return nil
	})
	if err := s.Solve(); err != nil {
		return nil, err
	}
	return s, nil
}

// phase runs fn inside the span name. The span is closed even when fn
// aborts (a budget trip deep in a BDD operation), so the fallback of a
// degraded run is not traced inside it.
func phase(tr obs.Tracer, name string, fn func() error, args ...obs.Arg) error {
	obs.Begin(tr, name, args...)
	defer obs.End(tr)
	return fn()
}

// runCHA runs a context-insensitive program over the CHA call graph,
// its invocation edges loaded as assign.
func runCHA(f *extract.Facts, cfg Config, src string) (*Result, error) {
	obs.Begin(cfg.Tracer, "analysis.cha")
	g := CHACallGraph(f)
	obs.End(cfg.Tracer)
	s, err := solveProgram(f, cfg, src, ciOrder, nil, nil, func(s *datalog.Solver) {
		fill(s, "assign", AssignEdges(f, g, false))
	})
	if err != nil {
		return nil, err
	}
	return &Result{Solver: s, Facts: f, Graph: g}, nil
}

// RunOnTheFly runs Algorithm 3: context-insensitive points-to with call
// graph discovery.
func RunOnTheFly(f *extract.Facts, cfg Config) (_ *Result, err error) {
	cfg = cfg.withControl()
	defer resilience.Recover(&err)
	s, err := solveProgram(f, cfg, Algorithm3Src, ciOrder, nil, nil, func(s *datalog.Solver) {
		fill(s, "assign0", f.Assign)
	})
	if err != nil {
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
// domains, and Algorithm 3 has no C domain — and neither is
// DomainSlack, so discovery is sized by the facts alone) and keeps the
// whole Result, graph attached, so context-sensitive callers can reuse
// it as their degradation fallback.
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
// discovery ran. It is reused when the primary solve asked for no
// domain slack; otherwise (or when there is none) a fresh fallback run
// sized like the primary solve is made, detached from the budget.
// Internal errors and fallback failures propagate the original cause,
// and so does any trip when Config.ExtraSrc is set: the query fragments
// read context-sensitive relations (vPC, IEC) that a context-insensitive
// fallback cannot hold, so a degraded result would lack their relations.
func degrade(f *extract.Facts, ci *Result, cfg Config, cause error) (*Result, error) {
	if !errors.Is(cause, resilience.ErrBudgetExceeded) && !errors.Is(cause, resilience.ErrCanceled) {
		return nil, cause
	}
	if cfg.ExtraSrc != "" {
		return nil, cause
	}
	if cfg.Metrics != nil {
		cfg.Metrics.Counter("analysis.degraded").Inc()
	}
	if ci == nil || cfg.DomainSlack > 0 {
		// Detach the fallback from the exhausted budget / canceled
		// context: a degraded answer is only useful if it can finish.
		// Keep the slack, so live updates can still add names.
		fb := cfg.auxConfig()
		fb.Context, fb.Budget, fb.ctl = nil, resilience.Budget{}, nil
		fb.DomainSlack = cfg.DomainSlack
		var err error
		if ci, err = RunOnTheFly(f, fb); err != nil {
			return nil, cause
		}
	}
	ci.Degraded = true
	ci.DegradedCause = cause
	return ci, nil
}

// onGraph runs an analysis over call graph g. When g is nil it is
// discovered first with Algorithm 3. When degrades is set, a budget
// trip or cancellation anywhere in run falls back to the
// context-insensitive result (see degrade) instead of failing.
func onGraph(f *extract.Facts, g *callgraph.Graph, cfg Config, degrades bool,
	run func(*callgraph.Graph) (*Result, error)) (*Result, error) {
	var ci *Result // Algorithm 3 result, reused on degradation
	if g == nil {
		var err error
		if ci, err = discoverResult(f, cfg); err != nil {
			return nil, fmt.Errorf("analysis: call graph discovery: %w", err)
		}
		g = ci.Graph
	}
	r, err := func() (_ *Result, err error) {
		defer resilience.Recover(&err)
		return run(g)
	}()
	if err != nil && degrades {
		return degrade(f, ci, cfg, err)
	}
	return r, err
}

// runCloned runs a context-sensitive program over the cloned call
// graph: Algorithm 4 numbers g, and the numbering is materialized into
// IEC plus either vC (Algorithms 5 and 6) or, with heap set, Algorithm
// 8's vcH heap-context diagonal; heap also fills the per-site
// noHeapContext escape set that heapCloned reads.
func runCloned(f *extract.Facts, g *callgraph.Graph, cfg Config, src string, heap bool) (*Result, error) {
	var n *callgraph.Numbering
	if err := phase(cfg.Tracer, "analysis.numbering", func() (err error) {
		n, err = callgraph.NumberControlled(g, cfg.Tracer, cfg.ctl)
		return err
	}); err != nil {
		return nil, err
	}
	cSize := n.ContextDomainSize(cfg.contextLimit())
	order, sizes := csOrder, map[string]uint64{"C": cSize}
	var noHeap []bool
	if heap {
		// HC is sized like C: clone hc mirrors context c, with value 0
		// reserved for the context-insensitive clone.
		order, sizes["HC"] = heapOrder, cSize
		noHeap = noHeapContexts(f.AllocMethod, n, cSize, cfg.HeapContextLimit)
	}
	materialize := func(s *datalog.Solver) error {
		u := s.Universe()
		d := s.Relation("IEC").Attrs()
		iec, err := n.MaterializeIEC(u, "IEC", d[0], d[1], d[2], d[3])
		if err != nil {
			return err
		}
		s.ReplaceRelation("IEC", iec)
		if heap {
			d := s.Relation("vcH").Attrs()
			vm := varMethods(f, d[2].Phys.Size)
			vch, err := n.MaterializeHeapContexts(u, "vcH", d[0], d[1], d[2], vm, noHeapContexts(vm, n, cSize, cfg.HeapContextLimit))
			if err != nil {
				return err
			}
			s.ReplaceRelation("vcH", vch)
		} else {
			d := s.Relation("vC").Attrs()
			s.ReplaceRelation("vC", n.MaterializeContexts(u, "vC", d[0], d[1], varMethods(f, d[1].Phys.Size)))
		}
		// domC holds every context — programs bind the paper's implicitly
		// universal head contexts against it (Algorithm 6 rule (23), the
		// mod-ref query's mVC base case).
		if s.HasRelation("domC") {
			attr := s.Relation("domC").Attrs()[0]
			s.ReplaceRelation("domC", u.FullDomain("domC", attr))
		}
		return nil
	}
	var fillExtra func(*datalog.Solver)
	if heap {
		fillExtra = func(s *datalog.Solver) {
			var nhc [][]uint64
			for h, no := range noHeap {
				if no {
					nhc = append(nhc, []uint64{uint64(h)})
				}
			}
			s.Relation("noHeapContext").AddTuples(nhc)
		}
	}
	s, err := solveProgram(f, cfg, src, order, sizes, materialize, fillExtra)
	if err != nil {
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
	return onGraph(f, g, cfg, true, func(g *callgraph.Graph) (*Result, error) {
		return runCloned(f, g, cfg, Algorithm5Src, false)
	})
}

// RunContextSensitiveOnTheFly runs the Section 4.2 variant: Algorithm 4
// numbers a conservative CHA call graph, and the context-sensitive
// solve discovers which of its invocation edges are actually live
// (relation IECd) while computing vPC. It degrades like
// RunContextSensitive, with a fresh Algorithm 3 run as the fallback.
func RunContextSensitiveOnTheFly(f *extract.Facts, cfg Config) (_ *Result, err error) {
	cfg = cfg.withControl()
	defer resilience.Recover(&err)
	return onGraph(f, CHACallGraph(f), cfg, true, func(g *callgraph.Graph) (*Result, error) {
		return runCloned(f, g, cfg, Algorithm5OTFSrc, false)
	})
}

// varMethods maps every value of the V domain (size values) to its
// method. Spare values past the extracted variables (Config.DomainSlack)
// have none, like the global variable, so a live update that names a
// new variable seeds its allocations in every context.
func varMethods(f *extract.Facts, size uint64) []int {
	out := make([]int, size)
	for v := copy(out, f.VarMethod); v < len(out); v++ {
		out[v] = -1
	}
	return out
}

// noHeapContexts computes Algorithm 8's escape-hatch set over elements
// (allocation sites or variables) with the given methods: true for
// every element that must keep the single context-insensitive heap
// clone — global ones, those in unreachable methods, and those whose
// method has more (capped) contexts than cfg.HeapContextLimit.
func noHeapContexts(methods []int, n *callgraph.Numbering, contextDomainSize uint64, limit uint64) []bool {
	capM := contextDomainSize - 1
	out := make([]bool, len(methods))
	for e, meth := range methods {
		if meth < 0 {
			out[e] = true
			continue
		}
		k := callgraph.CappedCount(n.MethodContexts(meth), capM)
		if k == 0 || (limit > 0 && k > limit) {
			out[e] = true
		}
	}
	return out
}

// RunHeapCloned runs Algorithm 8 — context-sensitive points-to with
// heap cloning. When g is nil the call graph is discovered first with
// Algorithm 3. Budget exhaustion and cancellation degrade gracefully to
// the context-insensitive result, exactly like RunContextSensitive.
func RunHeapCloned(f *extract.Facts, g *callgraph.Graph, cfg Config) (_ *Result, err error) {
	cfg = cfg.withControl()
	defer resilience.Recover(&err)
	return onGraph(f, g, cfg, true, func(g *callgraph.Graph) (*Result, error) {
		return runCloned(f, g, cfg, Algorithm8Src, true)
	})
}

// RunTypeAnalysisCI runs the context-insensitive (0-CFA-like) type
// analysis of Section 5.5 over the CHA call graph — the base analysis
// that Algorithm 6 makes context-sensitive by cloning.
func RunTypeAnalysisCI(f *extract.Facts, cfg Config) (_ *Result, err error) {
	cfg = cfg.withControl()
	defer resilience.Recover(&err)
	return runCHA(f, cfg, TypeAnalysisCISrc)
}

// RunTypeAnalysis runs Algorithm 6, the context-sensitive type
// analysis. When g is nil the call graph is discovered first.
func RunTypeAnalysis(f *extract.Facts, g *callgraph.Graph, cfg Config) (_ *Result, err error) {
	cfg = cfg.withControl()
	defer resilience.Recover(&err)
	return onGraph(f, g, cfg, false, func(g *callgraph.Graph) (*Result, error) {
		return runCloned(f, g, cfg, Algorithm6Src, false)
	})
}
