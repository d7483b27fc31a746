package datalog

import (
	"fmt"
	"io"
	"math"
	"math/big"
	"sort"
	"strings"
	"time"

	"bddbddb/internal/datalog/check"
	"bddbddb/internal/datalog/plan"
	"bddbddb/internal/obs"
	"bddbddb/internal/rel"
	"bddbddb/internal/resilience"
)

// PlanConfig is the type of analysis.Config.Plan. Nothing reads it:
// every rule runs the full optimizer and every relation is a BDD.
//
// Deprecated: kept only so existing callers that set it still
// compile; it is removed with the next benchmark change.
type PlanConfig struct {
	Backend BackendMode
}

// BackendMode is the type of the unused PlanConfig.Backend field.
//
// Deprecated: see PlanConfig.
type BackendMode int

// BackendAuto is the one BackendMode value. It is the zero value, so
// setting it leaves a PlanConfig unchanged.
//
// Deprecated: see PlanConfig.
const BackendAuto BackendMode = 0

// Options configures a Solver.
type Options struct {
	// Order lists logical domain names from the top of the BDD variable
	// order downward (instances of a domain are always interleaved in
	// one block). Unlisted domains follow in declaration order.
	Order []string
	// NodeSize / CacheSize size the BDD manager (0 = defaults).
	NodeSize, CacheSize int
	// DomainSizes overrides declared domain sizes, e.g. to size the
	// context domain C to the actual number of call paths.
	DomainSizes map[string]uint64
	// ElemNames supplies element names per domain (the paper's ".map"
	// files); quoted constants in rules resolve through these.
	ElemNames map[string][]string
	// GCTrigger is the live-node fraction of the table (percent) above
	// which the solver garbage-collects between iterations. 0 means 75.
	GCTrigger int
	// NoIncrementalization disables semi-naive evaluation: every
	// recursive rule is re-applied to the full relations each iteration.
	// This is the ablation for Section 2.4's "Incrementalization"
	// optimization; leave it false for real use.
	NoIncrementalization bool
	// CountRuleTuples additionally records, per rule, how many new head
	// tuples it derived (RuleStats.DeltaTuples). Counting is an exact
	// satcount per derivation, so it costs a little; rule applications
	// and times are always collected.
	CountRuleTuples bool
	// Tracer receives solve/stratum/iteration/rule spans plus the BDD
	// manager's GC and growth events. Nil (the default) emits nothing
	// and costs one branch per rule application.
	Tracer obs.Tracer
	// Metrics, when set, receives a flat summary at the end of Solve:
	// solve time, iteration and rule-application counts, per-rule
	// timings, BDD stats (peak live nodes, GCs, per-cache hit ratios),
	// and final relation cardinalities. Each solve merges its registry
	// in (obs.Metrics.Merge), so a registry shared across several
	// solves sums their counters and timers, and keeps the last solve's
	// value of each gauge (BDD stats, relation cardinalities).
	Metrics *obs.Metrics
	// Control, when set, is polled for cancellation and resource budgets
	// throughout evaluation: inside the BDD operations, per rule
	// application, and per fixpoint iteration (which also counts toward
	// Budget.MaxIterations). Violations surface from Solve as typed
	// errors (resilience.ErrCanceled / ErrBudgetExceeded).
	Control *resilience.Controller
	// PreSolve, when set, runs inside Solve after facts are applied and
	// before the first stratum evaluates — the one point where input
	// relations hold their complete pre-fixpoint contents (fills and
	// facts alike), so a caller can apply an input-tuple delta there and
	// get exactly the semantics of IncrementalSolver.Update's edits to a
	// live solver.
	PreSolve func(*Solver) error
}

// SolverStats reports the work a Solve performed; the benchmark harness
// uses PeakLiveNodes for the paper's Figure 4 memory column. It is a
// view assembled from the solver's obs metrics registry — the registry
// is the single counting path.
type SolverStats struct {
	RuleApplications int64
	Iterations       int
	SolveTime        time.Duration // facts and fixpoint; excludes the cardinality pass
	PeakLiveNodes    int
	NodesAllocated   int64
	GCs              int64
	// Rules holds per-rule measurements in program order — the data
	// behind the paper's Section 6.4 tuning loop.
	Rules []RuleStats
	// Relations reports each declared relation's final cardinality
	// (exact satcount), valid after Solve — the paper's size columns.
	Relations []RelationCard
	// BaseMemoHits and BaseMemoMisses count, for a query, the literal
	// evaluations that read a base relation's wildcard projection from
	// the QueryBase memo and those that filled it. Zero outside
	// QueryBase.Eval. BaseMemoPivoted counts the evaluations among
	// them whose entry has the pivoted layout.
	BaseMemoHits, BaseMemoMisses, BaseMemoPivoted int64
}

// RelationCard is one relation's final tuple count.
type RelationCard struct {
	Name   string
	Tuples *big.Int
}

// RelationTuples returns the recorded final cardinality of the named
// relation (saturating at MaxInt64), or -1 when no cardinality was
// collected for it.
func (st SolverStats) RelationTuples(name string) int64 {
	for _, rc := range st.Relations {
		if rc.Name == name {
			return satInt64(rc.Tuples)
		}
	}
	return -1
}

// RuleStats is the cost of one rule across the whole evaluation.
type RuleStats struct {
	Rule         string
	Applications int64
	Time         time.Duration
	// DeltaTuples counts the new head tuples this rule contributed.
	DeltaTuples int64
}

// Registry key names used by the solver's counting path.
const (
	keySolve    = "datalog.solve"
	keyCards    = "datalog.cardinalities"
	keyRuleApps = "datalog.rule_applications"
	keyIters    = "datalog.iterations"
)

// opMetricKeys maps plan op kinds to their datalog.op.* counter keys.
var opMetricKeys = map[string]string{
	"Load":        "datalog.op.load",
	"SelectConst": "datalog.op.select_const",
	"EquateAttrs": "datalog.op.equate_attrs",
	"Project":     "datalog.op.project",
	"Reshape":     "datalog.op.reshape",
	"JoinProject": "datalog.op.join_project",
	"Complement":  "datalog.op.complement",
	"BindFull":    "datalog.op.bind_full",
	"ConstHead":   "datalog.op.const_head",
	"DupHead":     "datalog.op.dup_head",
}

// Solver evaluates one Datalog program over BDD relations.
type Solver struct {
	prog     *Program
	opts     Options
	u        *rel.Universe
	rels     map[string]*rel.Relation
	strata   []*stratum
	compiled map[*Rule]*compiledRule
	elemIdx  map[string]map[string]uint64
	solved   bool
	// queryBase marks relations a QueryBase bound in from a frozen
	// snapshot: they are read-only inputs the solver does not own, and
	// collectRelationCards skips them (satcounting a context-sensitive
	// points-to relation per served query would dwarf the query itself).
	queryBase map[string]bool
	// base is the QueryBase a query-mode solver evaluates against (nil
	// in batch mode); cMemoHits and cMemoMisses count the literals
	// that found its wildcard projection memoized and those that
	// filled it, and cMemoPivoted those of either whose entry is
	// pivoted.
	base         *QueryBase
	cMemoHits    *obs.Counter
	cMemoMisses  *obs.Counter
	cMemoPivoted *obs.Counter

	// reg is the solver's private metrics registry: every count the
	// solver keeps (rule applications, iterations, per-rule timers,
	// solve time, BDD stats) lives here, and SolverStats is derived
	// from it. opts.Metrics, if set, has it merged in at the end of
	// Solve.
	reg    *obs.Metrics
	tr     obs.Tracer
	cApps  *obs.Counter
	cIters *obs.Counter
	// opCounters counts executed plan ops by kind (datalog.op.*);
	// cHoistHits/cHoistMisses count normalization-cache outcomes.
	opCounters   map[string]*obs.Counter
	cHoistHits   *obs.Counter
	cHoistMisses *obs.Counter
	ruleObs      map[*Rule]*ruleObs
	relCards     []RelationCard
	// hRuleApply aggregates every rule application's wall time into one
	// latency distribution (datalog.rule.apply_sec); hOpNodes records
	// each plan op's materialized result size as the delta of the BDD
	// manager's produced-node counter (datalog.op.result_nodes) — an
	// O(1) proxy that avoids walking result BDDs on the hot path.
	hRuleApply *obs.Histogram
	hOpNodes   *obs.Histogram

	// afterGrow, when a test sets it, runs after every growHead that
	// grew its head.
	afterGrow func(rules []*compiledRule)
}

// ruleObs bundles one rule's metric handles: the timer's count is the
// rule's application count, its total the cumulative evaluation time.
type ruleObs struct {
	text   string // the rule, for reports
	span   string // stable trace-span name, e.g. "rule 3: vP"
	timer  *obs.Timer
	tuples *obs.Counter // nil unless Options.CountRuleTuples
}

// tupleCount returns the rule's counted head tuples, 0 when uncounted.
func (ro *ruleObs) tupleCount() int64 {
	if ro.tuples == nil {
		return 0
	}
	return ro.tuples.Value()
}

func (s *Solver) countDelta(r *Rule, fresh *rel.Relation) {
	if !s.opts.CountRuleTuples {
		return
	}
	ro := s.ruleObs[r]
	n := satInt64(fresh.Size())
	ro.tuples.Add(n)
	if s.tr != nil {
		s.tr.Counter("datalog.delta_tuples", map[string]float64{r.Head.Pred: float64(n)})
	}
}

func satInt64(v *big.Int) int64 {
	if v.IsInt64() {
		return v.Int64()
	}
	return math.MaxInt64
}

// NewSolver builds the universe, relations, and rule plans for prog.
// The semantic checker runs first (against the domain sizes the solver
// will actually use), so hand-built or MustParse'd programs are
// validated even when the caller skipped ParseAndCheck.
func NewSolver(prog *Program, opts Options) (*Solver, error) {
	diags := check.ProgramOpts(prog, check.Options{DomainSizes: opts.DomainSizes})
	if err := diags.Err(); err != nil {
		return nil, err
	}
	strata, err := stratify(prog)
	if err != nil {
		return nil, err
	}
	// The program's own .bddvarorder applies unless options override it.
	if opts.Order == nil && prog.Order != nil {
		opts.Order = prog.Order
	}
	s := &Solver{
		prog:     prog,
		opts:     opts,
		u:        rel.NewUniverse(),
		rels:     make(map[string]*rel.Relation),
		strata:   strata,
		compiled: make(map[*Rule]*compiledRule),
		elemIdx:  make(map[string]map[string]uint64),
		reg:      obs.New(),
		tr:       opts.Tracer,
		ruleObs:  make(map[*Rule]*ruleObs),
	}
	s.initObs()
	// Declare logical domains.
	for _, d := range prog.Domains {
		size := d.Size
		if o, ok := opts.DomainSizes[d.Name]; ok {
			size = o
		}
		ld := s.u.Declare(d.Name, size)
		if names, ok := opts.ElemNames[d.Name]; ok {
			ld.SetElemNames(names)
			idx := make(map[string]uint64, len(names))
			for i, n := range names {
				idx[n] = uint64(i)
			}
			s.elemIdx[d.Name] = idx
		}
	}
	// Instance requirements: relation schemas and per-rule variables.
	for _, rd := range prog.Relations {
		counts := make(map[string]int)
		for _, a := range rd.Attrs {
			counts[a.Domain]++
		}
		for dom, n := range counts {
			s.u.EnsureInstances(dom, n)
		}
	}
	assignments := make(map[*Rule]map[string]int)
	for _, rule := range prog.Rules {
		if rule.IsFact() {
			continue
		}
		asn, need := assignInstances(prog, rule)
		assignments[rule] = asn
		for dom, n := range need {
			s.u.EnsureInstances(dom, n)
		}
	}
	if err := s.u.Finalize(rel.FinalizeOptions{
		Order:     opts.Order,
		NodeSize:  opts.NodeSize,
		CacheSize: opts.CacheSize,
	}); err != nil {
		return nil, err
	}
	s.u.M.SetTracer(opts.Tracer)
	s.u.M.SetControl(opts.Control)
	// Materialize declared relations on their natural instances.
	for _, rd := range prog.Relations {
		attrs := make([]rel.Attr, len(rd.Attrs))
		seen := make(map[string]int)
		for i, a := range rd.Attrs {
			attrs[i] = s.u.A(a.Name, a.Domain, seen[a.Domain])
			seen[a.Domain]++
		}
		s.rels[rd.Name] = s.u.NewRelation(rd.Name, attrs...)
	}
	// Compile rules.
	for _, rule := range prog.Rules {
		if rule.IsFact() {
			continue
		}
		cr, err := s.compileRule(rule, assignments[rule], nil)
		if err != nil {
			return nil, err
		}
		s.compiled[rule] = cr
	}
	return s, nil
}

// initObs wires the solver's private metrics registry: the shared
// counters, one counter per plan-op kind (pre-created so the keys
// appear in snapshots even when an op kind never runs), and per-rule
// timer/tuple handles. Both NewSolver and QueryBase.Eval-built solvers
// go through here.
func (s *Solver) initObs() {
	s.cApps = s.reg.Counter(keyRuleApps)
	s.cIters = s.reg.Counter(keyIters)
	s.opCounters = make(map[string]*obs.Counter)
	for kind, key := range opMetricKeys {
		s.opCounters[kind] = s.reg.Counter(key)
	}
	s.cHoistHits = s.reg.Counter("datalog.op.norm_cache_hits")
	s.cHoistMisses = s.reg.Counter("datalog.op.norm_cache_misses")
	s.hRuleApply = s.reg.Histogram("datalog.rule.apply_sec", obs.LatencyBuckets())
	s.hOpNodes = s.reg.Histogram("datalog.op.result_nodes", obs.SizeBuckets())
	for i, rule := range s.prog.Rules {
		if rule.IsFact() {
			continue
		}
		key := fmt.Sprintf("datalog.rule.%03d", i)
		ro := &ruleObs{
			text:  rule.String(),
			span:  fmt.Sprintf("rule %d: %s", i, rule.Head.Pred),
			timer: s.reg.Timer(key),
		}
		// Tuples are counted only on request; leaving the key
		// unregistered keeps an unmeasured count out of the export
		// instead of reading as 0.
		if s.opts.CountRuleTuples {
			ro.tuples = s.reg.Counter(key + ".tuples")
		}
		s.ruleObs[rule] = ro
	}
}

// Universe exposes the solver's BDD universe so callers can construct
// relations directly (e.g. context-numbering builds IEC with AddConst).
func (s *Solver) Universe() *rel.Universe { return s.u }

// RelationDecls returns the program's relation declarations in
// declaration order — the schemas (attribute names + domains) of every
// relation the solver serves. Callers must not mutate the result.
func (s *Solver) RelationDecls() []*RelationDecl { return s.prog.Relations }

// Relation returns the live relation for a declared predicate. Fill
// input relations before Solve; read outputs after. The solver owns the
// relation; do not Free it.
//
// Panic audit: the unknown-relation panic here (and in
// ReplaceRelation) is a Go-API contract, not a user-input path — every
// caller passes names taken from the parsed program's own declarations
// (which the semantic checker has already validated), so user Datalog
// text cannot reach it. User-facing name errors are DL002 diagnostics
// from the checker.
func (s *Solver) Relation(name string) *rel.Relation {
	r := s.rels[name]
	if r == nil {
		panic(fmt.Sprintf("datalog: unknown relation %q", name))
	}
	return r
}

// HasRelation reports whether the program declares the relation.
func (s *Solver) HasRelation(name string) bool { return s.rels[name] != nil }

// ReplaceRelation swaps in an externally built relation (schema must
// match). The solver takes ownership.
func (s *Solver) ReplaceRelation(name string, r *rel.Relation) {
	old := s.rels[name]
	if old == nil {
		panic(fmt.Sprintf("datalog: unknown relation %q", name))
	}
	if !old.SameSchemaAs(r) {
		panic(fmt.Sprintf("datalog: ReplaceRelation %s: schema mismatch (%v vs %v)", name, old, r))
	}
	old.Free()
	s.rels[name] = r
}

// Stats returns evaluation statistics (valid after Solve), assembled
// from the solver's metrics registry. Rules are reported in program
// order.
func (s *Solver) Stats() SolverStats {
	out := SolverStats{
		RuleApplications: s.cApps.Value(),
		Iterations:       int(s.cIters.Value()),
		SolveTime:        s.reg.Timer(keySolve).Total(),
		PeakLiveNodes:    int(s.reg.Gauge("bdd.peak_live_nodes").Value()),
		NodesAllocated:   int64(s.reg.Gauge("bdd.produced_nodes").Value()),
		GCs:              int64(s.reg.Gauge("bdd.gcs").Value()),
		Relations:        s.relCards,
	}
	if s.base != nil {
		out.BaseMemoHits = s.cMemoHits.Value()
		out.BaseMemoMisses = s.cMemoMisses.Value()
		out.BaseMemoPivoted = s.cMemoPivoted.Value()
	}
	for _, r := range s.prog.Rules {
		ro := s.ruleObs[r]
		if ro == nil || ro.timer.Count() == 0 {
			continue
		}
		out.Rules = append(out.Rules, RuleStats{
			Rule:         ro.text,
			Applications: ro.timer.Count(),
			Time:         ro.timer.Total(),
			DeltaTuples:  ro.tupleCount(),
		})
	}
	return out
}

// Metrics exposes the solver's private registry (the single counting
// path behind Stats) for callers that want raw access.
func (s *Solver) Metrics() *obs.Metrics { return s.reg }

// resolveConst turns a term into a concrete domain value.
func (s *Solver) resolveConst(t Term, domain string) (uint64, error) {
	switch t.Kind {
	case TermConst:
		return t.Val, nil
	case TermNamedConst:
		idx, ok := s.elemIdx[domain]
		if !ok {
			return 0, fmt.Errorf("constant %q used but domain %s has no element names", t.Name, domain)
		}
		v, ok := idx[t.Name]
		if !ok {
			return 0, fmt.Errorf("constant %q not found in domain %s", t.Name, domain)
		}
		return v, nil
	default:
		return 0, fmt.Errorf("term %s is not a constant", t)
	}
}

// Solve evaluates the program to fixpoint, stratum by stratum. A
// cancellation or budget violation (Options.Control) aborts out of the
// BDD recursions by panicking with a typed error; the Recover boundary
// here converts it back into an error return, so Solve never lets a
// resilience abort — or any other panic — escape as a panic.
//
// The datalog.solve timer (SolverStats.SolveTime) covers the facts and
// the fixpoint only. The end-of-solve cardinality pass is timed apart,
// as datalog.cardinalities; the datalog.solve span encloses both.
func (s *Solver) Solve() (err error) {
	defer resilience.Recover(&err)
	if s.solved {
		return fmt.Errorf("datalog: Solve called twice")
	}
	s.solved = true
	start := time.Now()
	if s.tr != nil {
		s.tr.Begin("datalog.solve",
			obs.A("rules", len(s.prog.Rules)), obs.A("strata", len(s.strata)))
		defer func() { s.tr.End() }()
	}
	if err := s.applyFacts(); err != nil {
		return err
	}
	if s.opts.PreSolve != nil {
		if err := s.opts.PreSolve(s); err != nil {
			return err
		}
	}
	for i, st := range s.strata {
		s.solveStratum(i, st)
	}
	s.reg.Timer(keySolve).Observe(time.Since(start))
	s.u.M.Stats().AddTo(s.reg)
	s.reg.Set("datalog.backend.bdd.ops", float64(s.u.Ops()))
	s.collectRelationCards()
	if s.opts.Metrics != nil {
		s.opts.Metrics.Merge(s.reg)
	}
	return nil
}

// collectRelationCards records every declared relation's final exact
// cardinality — the paper's relation-size columns — into the stats and
// the registry (as "relation.<name>.tuples"). The pass has its own
// timer and span, datalog.cardinalities, nested in datalog.solve's span.
func (s *Solver) collectRelationCards() {
	start := time.Now()
	if s.tr != nil {
		s.tr.Begin(keyCards, obs.A("relations", len(s.prog.Relations)))
		defer func() { s.tr.End() }()
	}
	defer func() { s.reg.Timer(keyCards).Observe(time.Since(start)) }()
	for _, rd := range s.prog.Relations {
		r := s.rels[rd.Name]
		if r == nil || s.queryBase[rd.Name] {
			continue
		}
		size := r.Size()
		s.relCards = append(s.relCards, RelationCard{Name: rd.Name, Tuples: size})
		f, _ := new(big.Float).SetInt(size).Float64()
		s.reg.Set("relation."+rd.Name+".tuples", f)
	}
}

func (s *Solver) applyFacts() error {
	if s.tr != nil {
		s.tr.Begin("datalog.facts")
		defer func() { s.tr.End() }()
	}
	rows := make(map[string][][]uint64)
	var preds []string
	for _, rule := range s.prog.Rules {
		if !rule.IsFact() {
			continue
		}
		decl := s.prog.Relation(rule.Head.Pred)
		vals := make([]uint64, len(rule.Head.Args))
		for i, t := range rule.Head.Args {
			v, err := s.resolveConst(t, decl.Attrs[i].Domain)
			if err != nil {
				return check.Errorf(check.CodeConstRange, s.prog.File, t.Line, t.Col, "%v", err)
			}
			vals[i] = v
		}
		p := rule.Head.Pred
		if rows[p] == nil {
			preds = append(preds, p)
		}
		rows[p] = append(rows[p], vals)
	}
	for _, p := range preds {
		s.rels[p].AddTuples(rows[p])
	}
	return nil
}

// stratumRun is one evaluation of a stratum: the batch solve's, a
// live update's fast path, or a live update's recompute.
type stratumRun struct {
	inStratum map[string]bool
	// base and recur split the stratum's rules by whether a positive
	// body literal reads a predicate of the stratum; rules is base
	// followed by recur, the set whose hoisted normalizations growHead
	// maintains.
	base, recur, rules []*compiledRule
	// card is the memoized cardinality lookup the rules were planned
	// with; later plans of the same run reuse it.
	card func(pred string) float64
}

// withStratum runs eval inside the prologue and epilogue every
// evaluation of a stratum shares: the stratum.start fault point, a
// cancellation check and the "stratum i" span, the base/recursive
// split, and planning. Every rule is planned against the
// cardinalities its sources have right now (lower strata are final,
// recursive relations hold their seed values): a base variant and one
// delta variant per recursive position. Afterwards the hoisted
// normalizations are dropped — every rule belongs to exactly one
// stratum, so this covers all cache entries.
func (s *Solver) withStratum(idx int, st *stratum, eval func(run *stratumRun)) {
	resilience.FaultPoint(resilience.FaultStratumStart)
	s.opts.Control.Check()
	if s.tr != nil {
		s.tr.Begin(fmt.Sprintf("stratum %d", idx), obs.A("rules", len(st.rules)))
		defer func() { s.tr.End() }()
	}
	run := &stratumRun{inStratum: make(map[string]bool), card: s.cardFn()}
	for _, p := range st.preds {
		run.inStratum[p] = true
	}
	for _, rule := range st.rules {
		if rule.IsFact() {
			continue
		}
		cr := s.compiled[rule]
		if len(cr.recursivePositions(run.inStratum)) > 0 {
			run.recur = append(run.recur, cr)
		} else {
			run.base = append(run.base, cr)
		}
	}
	run.rules = append(append([]*compiledRule(nil), run.base...), run.recur...)
	for _, cr := range run.rules {
		cr.plans = map[int]*plan.Plan{-1: plan.Optimize(cr.naive, run.card)}
		for _, pos := range cr.recursivePositions(run.inStratum) {
			cr.plans[pos] = plan.Optimize(cr.naive.WithDelta(pos), run.card)
		}
	}
	defer func() {
		for _, cr := range run.rules {
			cr.clearCaches(s.u.M)
		}
	}()
	eval(run)
}

// solveStratum evaluates one stratum to fixpoint: each base rule once,
// then the recursive rules semi-naively from the stratum's current
// values (or, under NoIncrementalization, re-applied in full until
// nothing changes).
func (s *Solver) solveStratum(idx int, st *stratum) {
	s.withStratum(idx, st, func(run *stratumRun) {
		for _, cr := range run.base {
			s.derive(run, cr, cr.plans[-1], nil, nil)
		}
		if len(run.recur) == 0 {
			return
		}
		if s.opts.NoIncrementalization {
			s.iterate(func() bool {
				changed := false
				for _, cr := range run.recur {
					if s.derive(run, cr, cr.plans[-1], nil, nil) {
						changed = true
					}
				}
				return changed
			})
			return
		}
		delta := make(map[string]*rel.Relation)
		for _, p := range st.preds {
			if r, ok := s.rels[p]; ok {
				delta[p] = r.Clone("Δ" + p)
			}
		}
		s.seminaive(run, delta)
	})
}

// seminaive is the semi-naive fixpoint loop. delta (owned) maps each
// predicate to the tuples it gained last; every iteration applies each
// recursive rule once per body position whose delta is non-empty,
// reading that delta there and full relations elsewhere, and the new
// tuples form the next delta. It stops after the first iteration that
// derives nothing, and runs none when delta is empty.
func (s *Solver) seminaive(run *stratumRun, delta map[string]*rel.Relation) {
	if len(delta) == 0 {
		return
	}
	s.iterate(func() bool {
		next := make(map[string]*rel.Relation)
		for _, cr := range run.recur {
			for _, pos := range cr.recursivePositions(run.inStratum) {
				d := delta[cr.naive.Lits[pos].Pred]
				if d == nil || d.IsEmpty() {
					continue
				}
				s.derive(run, cr, cr.plans[pos], d, next)
			}
		}
		for _, d := range delta {
			d.Free()
		}
		delta = next
		return len(delta) > 0
	})
}

// iterate runs round until it reports that nothing changed, counting
// each call as one fixpoint iteration (datalog.iterations, the
// controller's iteration budget, an "iteration n" span) and offering
// the manager a collection after it.
func (s *Solver) iterate(round func() bool) {
	for changed := true; changed; {
		s.cIters.Inc()
		s.opts.Control.AddIteration()
		if s.tr != nil {
			s.tr.Begin(fmt.Sprintf("iteration %d", s.cIters.Value()))
		}
		changed = round()
		s.maybeGC()
		if s.tr != nil {
			s.tr.End(obs.A("changed", changed))
		}
	}
}

// derive is the one rule-application step: it runs plan variant p of
// cr (delta feeds the variant's delta literal; nil for the base
// variant), keeps the tuples the head does not hold yet, grows the
// head by them and reports whether there were any. When into is
// non-nil the new tuples are added to into[head] for the next
// iteration; otherwise they are freed.
func (s *Solver) derive(run *stratumRun, cr *compiledRule, p *plan.Plan, delta *rel.Relation, into map[string]*rel.Relation) bool {
	head := s.rels[cr.rule.Head.Pred]
	res := s.execPlan(cr, p, delta)
	fresh := res.Minus("fresh", head)
	res.Free()
	if fresh.IsEmpty() {
		fresh.Free()
		return false
	}
	s.countDelta(cr.rule, fresh)
	s.growHead(run.rules, head, fresh)
	if into == nil {
		fresh.Free()
	} else if d := into[cr.rule.Head.Pred]; d == nil {
		into[cr.rule.Head.Pred] = fresh
	} else {
		d.UnionWith(fresh)
		fresh.Free()
	}
	return true
}

// cardFn returns a memoized live-cardinality lookup, the planner's
// cost input. Satcounts are exact but cost a BDD walk, so each
// predicate is counted at most once per planning round.
func (s *Solver) cardFn() func(pred string) float64 {
	memo := make(map[string]float64)
	return func(pred string) float64 {
		if v, ok := memo[pred]; ok {
			return v
		}
		v := 0.0
		if r := s.rels[pred]; r != nil {
			v = r.SizeFloat()
		}
		memo[pred] = v
		return v
	}
}

// RelationNames lists the program's declared relations in declaration
// order.
func (s *Solver) RelationNames() []string {
	out := make([]string, len(s.prog.Relations))
	for i, rd := range s.prog.Relations {
		out[i] = rd.Name
	}
	return out
}

// Explain writes every rule's execution plan, stratum by stratum: the
// canonical lowered form ("before": textual join order, identity
// moves kept) and the optimizer's output ("after"), including each
// semi-naive delta variant for recursive rules. Loads are annotated
// with the cardinalities the planner saw, so calling Explain after
// filling input relations (as cmd/bddbddb -explain does) shows the
// actual planning decisions; non-delta literals whose normalization
// the interpreter hoists out of the fixpoint loop are listed per rule.
func (s *Solver) Explain(w io.Writer) {
	ruleIdx := make(map[*Rule]int)
	for i, r := range s.prog.Rules {
		ruleIdx[r] = i
	}
	card := s.cardFn()
	for si, st := range s.strata {
		inStratum := make(map[string]bool)
		for _, p := range st.preds {
			inStratum[p] = true
		}
		fmt.Fprintf(w, "== stratum %d ==\n", si)
		for _, rule := range st.rules {
			if rule.IsFact() {
				continue
			}
			cr := s.compiled[rule]
			fmt.Fprintf(w, "rule %d: %s\n", ruleIdx[rule], cr.naive.Rule)
			fmt.Fprintln(w, " before:")
			cr.naive.Format(w, card)
			opt := plan.Optimize(cr.naive, card)
			fmt.Fprintln(w, " after:")
			opt.Format(w, card)
			for _, pos := range cr.recursivePositions(inStratum) {
				dv := plan.Optimize(cr.naive.WithDelta(pos), card)
				fmt.Fprintf(w, " after (Δ%s at %d):\n", cr.naive.Lits[pos].Pred, pos)
				dv.Format(w, card)
			}
			var hoisted []string
			for i := range opt.Lits {
				if l := &opt.Lits[i]; !l.Trivial() {
					hoisted = append(hoisted, l.Pred)
				}
			}
			if len(hoisted) > 0 {
				sort.Strings(hoisted)
				fmt.Fprintf(w, " hoisted per stratum: %s\n", strings.Join(hoisted, ", "))
			}
		}
	}
}

func (s *Solver) maybeGC() {
	trigger := s.opts.GCTrigger
	if trigger == 0 {
		trigger = 75
	}
	m := s.u.M
	if m.LiveNodes()*100 > m.Stats().TableSize*trigger {
		m.GC()
	}
}
