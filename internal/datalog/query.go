package datalog

import (
	"errors"
	"fmt"
	"strings"

	"bddbddb/internal/datalog/check"
	"bddbddb/internal/obs"
	"bddbddb/internal/rel"
	"bddbddb/internal/resilience"
)

// This file is the query-mode evaluation entry point: ad-hoc Datalog
// queries evaluated read-only against an already-solved (frozen) set of
// relations, as in the paper's Section 5 — where the expensive
// context-sensitive solve happens once and queries like whoPointsTo and
// whoDunnit are then cheap lookups over the materialized results.
//
// A QueryBase wraps a universe plus frozen base relations (typically a
// snapshot replica hydrated by internal/serve). Eval parses a query
// through the ordinary front end with a generated prelude declaring
// every base relation, rejects anything that would mutate the base or
// exceed the replica's physical headroom, then runs the standard
// compile→stratify→semi-naive pipeline on the query's own rules. Base
// relations join in place — zero copies of the solved BDDs.

// ErrQueryRejected classifies queries that parsed and checked but are
// not evaluable against this base: they derive into a frozen relation,
// need more strata or physical domain instances than the replica
// allows, or declare nothing to output. Servers map it to HTTP 422
// (well-formed but unprocessable), distinct from syntax/semantic
// errors (*check.Error → 400) and budget exhaustion (429).
var ErrQueryRejected = errors.New("datalog: query rejected")

// QueryRejectError carries the rejection reason.
type QueryRejectError struct {
	Reason string
}

func (e *QueryRejectError) Error() string { return "datalog: query rejected: " + e.Reason }

// Unwrap ties the error to the ErrQueryRejected class.
func (e *QueryRejectError) Unwrap() error { return ErrQueryRejected }

func rejectf(format string, args ...any) error {
	return &QueryRejectError{Reason: fmt.Sprintf(format, args...)}
}

// QueryBase is a read-only evaluation context: a finalized universe and
// the frozen relations queries may reference. Build one per replica;
// it is not safe for concurrent Evals (the BDD manager is
// single-threaded — concurrency comes from multiple replicas).
// Relations, HasRelation and ElemIndex read only what NewQueryBase
// built, so other goroutines may call them while an Eval runs.
type QueryBase struct {
	u       *rel.Universe
	rels    map[string]*rel.Relation
	names   []string // base relation names in registration order
	prelude string
	// preludeLines rebases diagnostic positions so errors point into
	// the user's query text, not the invisible prelude.
	preludeLines int
	elemNames    map[string][]string
	elemIdx      map[string]map[string]uint64
	// memo holds base relations with some attributes projected out:
	// the literals' wildcard projections, filled on first use and kept,
	// referenced and frozen, for the base's life. There are at most
	// 2^arity keys per base relation. Only Eval touches it.
	memo      map[memoKey]*rel.Relation
	memoNodes int
}

// memoKey names one memo entry: a base relation and its projected-out
// attributes, sorted and comma-joined.
type memoKey struct {
	rel, wild string
}

// NewQueryBase registers the given relations (frozen, or at least
// treated as read-only) as the query-visible base. Relation and
// attribute names must be valid Datalog identifiers — they come from a
// parsed program's own declarations, so this holds by construction.
func NewQueryBase(u *rel.Universe, rels []*rel.Relation) *QueryBase {
	b := &QueryBase{
		u:         u,
		rels:      make(map[string]*rel.Relation, len(rels)),
		elemNames: make(map[string][]string),
		elemIdx:   make(map[string]map[string]uint64),
		memo:      make(map[memoKey]*rel.Relation),
	}
	var sb strings.Builder
	for _, d := range u.Domains() {
		fmt.Fprintf(&sb, ".domain %s %d\n", d.Name, d.Size)
		b.preludeLines++
		if names := d.ElemNames(); names != nil {
			b.elemNames[d.Name] = names
			idx := make(map[string]uint64, len(names))
			for i, n := range names {
				idx[n] = uint64(i)
			}
			b.elemIdx[d.Name] = idx
		}
	}
	for _, r := range rels {
		b.rels[r.Name] = r
		b.names = append(b.names, r.Name)
		parts := make([]string, len(r.Attrs()))
		for i, a := range r.Attrs() {
			parts[i] = fmt.Sprintf("%s : %s", a.Name, a.Dom.Name)
		}
		fmt.Fprintf(&sb, ".relation %s (%s) input\n", r.Name, strings.Join(parts, ", "))
		b.preludeLines++
	}
	b.prelude = sb.String()
	return b
}

// Relations lists the base relation names in registration order.
func (b *QueryBase) Relations() []string { return append([]string(nil), b.names...) }

// HasRelation reports whether name is a queryable base relation.
func (b *QueryBase) HasRelation(name string) bool { return b.rels[name] != nil }

// ElemIndex resolves an element name in a domain; ok is false when the
// domain has no name table or the name is absent. Servers use this to
// validate user-supplied names before splicing them into a query.
func (b *QueryBase) ElemIndex(domain, name string) (uint64, bool) {
	v, ok := b.elemIdx[domain][name]
	return v, ok
}

// MemoNodes is the summed BDD node count of the memo's entries, each
// counted when it was filled. Like Eval, only the base's owner may
// call it.
func (b *QueryBase) MemoNodes() int { return b.memoNodes }

// projected returns the base relation src with the sorted attributes
// wild projected out. The first call for a (relation, attributes) pair
// computes it under the calling query's controller and keeps it; later
// calls reuse it. Selecting on an attribute at the bottom of the
// variable order (vPC's heap, under V above C above H) must visit
// every node of the relation, while the projection of the contexts
// away is a fraction of its size, so a query pays that walk over the
// small relation instead. A fill that trips the query's budget panics
// out before the store and leaves no entry.
func (b *QueryBase) projected(s *Solver, src *rel.Relation, wild []string) *rel.Relation {
	key := memoKey{rel: src.Name, wild: strings.Join(wild, ",")}
	if r := b.memo[key]; r != nil {
		s.cMemoHits.Inc()
		return r
	}
	if s.tr != nil {
		s.tr.Begin("datalog.base_memo.fill", obs.A("relation", src.Name), obs.A("drop", key.wild))
	}
	r := src.ProjectOut("memo:"+src.Name, wild...)
	r.Freeze()
	b.memo[key] = r
	b.memoNodes += b.u.M.NodeCount(r.Root())
	s.cMemoMisses.Inc()
	if s.tr != nil {
		s.tr.End()
	}
	return r
}

// QueryOptions configures one Eval.
type QueryOptions struct {
	// Plan configures the rule planner, as in Options.Plan.
	Plan PlanConfig
	// Tracer receives the usual solve spans; nil is free.
	Tracer obs.Tracer
	// Control bounds the evaluation (per-request timeout / node
	// budget); violations surface as typed resilience errors.
	Control *resilience.Controller
	// MaxStrata caps how many rule strata the query may need; 0 means
	// 1 (single-stratum queries, the common interactive case). Strata
	// holding only base relations don't count — they have no rules.
	MaxStrata int
}

// QueryResult holds a finished query's outputs. Outputs are the
// relations declared `output`, in declaration order; they live in the
// base's universe until Close, so render them before closing.
type QueryResult struct {
	Outputs []*rel.Relation
	Stats   SolverStats

	s      *Solver
	closed bool
}

// Close frees every BDD reference the query created: derived
// relations (including the outputs) and per-rule helper relations.
// Base relations are untouched.
func (r *QueryResult) Close() {
	if r == nil || r.closed {
		return
	}
	r.closed = true
	r.s.releaseQueryState()
	r.Outputs = nil
}

// releaseQueryState drops everything a query-mode solver allocated in
// the shared universe.
func (s *Solver) releaseQueryState() {
	for _, cr := range s.compiled {
		cr.releaseHelpers(s.u.M)
	}
	for name, r := range s.rels {
		if !s.queryBase[name] && r != nil {
			r.Free()
		}
	}
	s.rels = nil
	s.compiled = nil
}

// Eval parses, validates, plans, and evaluates one query against the
// base. The error taxonomy callers dispatch on:
//
//   - *check.Error — the query text is malformed (syntax or semantics)
//   - ErrQueryRejected (via errors.Is) — well-formed but not evaluable
//     against this base (writes a base relation, too many strata, not
//     enough physical instances, no output relation)
//   - resilience.ErrBudgetExceeded / ErrCanceled — opts.Control tripped
//   - resilience.ErrInternal — a panic, converted at this boundary
//
// On success the caller owns the result and must Close it.
func (b *QueryBase) Eval(src string, opts QueryOptions) (qr *QueryResult, err error) {
	defer resilience.Recover(&err)
	prog, diags, err := ParseAndCheck("query", b.prelude+src)
	if err != nil {
		return nil, b.rebase(err)
	}
	if err := diags.Err(); err != nil {
		return nil, b.rebase(err)
	}
	// The prelude declared every domain the universe has; anything new
	// would need BDD variables that don't exist in the replica.
	for _, d := range prog.Domains {
		if b.u.Domain(d.Name) == nil {
			return nil, rejectf("query declares new domain %s; only the base domains are available", d.Name)
		}
	}
	outputs := 0
	for _, rd := range prog.Relations {
		if rd.Kind == RelOutput && b.rels[rd.Name] == nil {
			outputs++
		}
	}
	if outputs == 0 {
		return nil, rejectf("query declares no output relation")
	}
	// Read-only: no rule (or fact) may derive into a frozen base
	// relation.
	for _, rule := range prog.Rules {
		if b.rels[rule.Head.Pred] != nil {
			return nil, rejectf("rule derives into frozen base relation %s", rule.Head.Pred)
		}
	}
	strata, err := stratify(prog)
	if err != nil {
		return nil, b.rebase(err)
	}
	maxStrata := opts.MaxStrata
	if maxStrata <= 0 {
		maxStrata = 1
	}
	if len(strata) > maxStrata {
		return nil, rejectf("query needs %d strata; this server allows %d", len(strata), maxStrata)
	}
	// Physical headroom: the replica's instance counts are fixed at
	// hydration, so demand beyond them is a rejection, not a grow.
	need := make(map[string]int)
	bump := func(dom string, n int) {
		if n > need[dom] {
			need[dom] = n
		}
	}
	for _, rd := range prog.Relations {
		counts := make(map[string]int)
		for _, a := range rd.Attrs {
			counts[a.Domain]++
		}
		for dom, n := range counts {
			bump(dom, n)
		}
	}
	assignments := make(map[*Rule]map[string]int)
	for _, rule := range prog.Rules {
		if rule.IsFact() {
			continue
		}
		asn, n := assignInstances(prog, rule)
		assignments[rule] = asn
		for dom, k := range n {
			bump(dom, k)
		}
	}
	for dom, n := range need {
		if have := b.u.Domain(dom).Instances(); n > have {
			return nil, rejectf("query needs %d physical instances of domain %s; the replica has %d (raise the server's query headroom)", n, dom, have)
		}
	}

	s := &Solver{
		prog: prog,
		opts: Options{
			Plan:      opts.Plan,
			Tracer:    opts.Tracer,
			Control:   opts.Control,
			ElemNames: b.elemNames,
		},
		u:         b.u,
		rels:      make(map[string]*rel.Relation),
		strata:    strata,
		compiled:  make(map[*Rule]*compiledRule),
		elemIdx:   b.elemIdx,
		reg:       obs.New(),
		tr:        opts.Tracer,
		ruleObs:   make(map[*Rule]*ruleObs),
		queryBase: make(map[string]bool),
		base:      b,
	}
	s.initObs()
	s.cMemoHits = s.reg.Counter("datalog.base_memo.hits")
	s.cMemoMisses = s.reg.Counter("datalog.base_memo.misses")
	// Bind base relations in place; materialize the query's own
	// relations on their natural instances, as NewSolver does.
	for _, rd := range prog.Relations {
		if base := b.rels[rd.Name]; base != nil {
			s.rels[rd.Name] = base
			s.queryBase[rd.Name] = true
			continue
		}
		attrs := make([]rel.Attr, len(rd.Attrs))
		seen := make(map[string]int)
		for i, a := range rd.Attrs {
			attrs[i] = s.u.A(a.Name, a.Domain, seen[a.Domain])
			seen[a.Domain]++
		}
		s.rels[rd.Name] = s.u.NewRelation(rd.Name, attrs...)
	}
	for _, rule := range prog.Rules {
		if rule.IsFact() {
			continue
		}
		cr, err := s.compileRule(rule, assignments[rule])
		if err != nil {
			s.releaseQueryState()
			return nil, err
		}
		s.compiled[rule] = cr
	}
	// The per-request controller must reach into the BDD recursions;
	// restore the replica to uncontrolled when the query finishes so a
	// stale (already-expired) controller can't poison later requests.
	b.u.M.SetControl(opts.Control)
	defer b.u.M.SetControl(nil)
	if err := s.Solve(); err != nil {
		s.releaseQueryState()
		return nil, err
	}
	res := &QueryResult{s: s, Stats: s.Stats()}
	for _, rd := range prog.Relations {
		if rd.Kind == RelOutput && !s.queryBase[rd.Name] {
			res.Outputs = append(res.Outputs, s.rels[rd.Name])
		}
	}
	return res, nil
}

// rebase shifts diagnostic line numbers past the generated prelude so
// they point into the user's query text. Diagnostics positioned inside
// the prelude itself (e.g. a duplicate declaration of a base relation
// reported at its prelude line) keep line 0 — no position beats a
// misleading one.
func (b *QueryBase) rebase(err error) error {
	var ce *check.Error
	if !errors.As(err, &ce) {
		return err
	}
	out := make(check.Diags, len(ce.Diags))
	for i, d := range ce.Diags {
		if d.Line > b.preludeLines {
			d.Line -= b.preludeLines
		} else if d.Line > 0 {
			d.Line, d.Col = 0, 0
		}
		out[i] = d
	}
	return &check.Error{Diags: out}
}
