package datalog

import (
	"errors"
	"fmt"
	"math/big"
	"slices"
	"sort"
	"strings"

	"bddbddb/internal/bdd"
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
	// referenced and frozen, for the base's life. Each projection has
	// its flat layout, on the base relation's own instances, and at
	// most a few pivoted ones (see projected). Only Eval touches it.
	memo      map[memoKey]memoEntry
	memoNodes int
}

// memoEntry is one memo value. A pivoted key whose flat entry is too
// dense to list (see pivotRowsPerNode) holds that flat entry, with
// pivoted false.
type memoEntry struct {
	r       *rel.Relation
	pivoted bool
}

// pivotRowsPerNode caps the rows a pivoted entry is listed from, per
// node of the flat entry. The build costs Go memory and time per row,
// and neither the node budget nor a BDD operation's own polling sees
// them; the cap keeps both within a constant factor of a BDD the node
// budget already counts. The flat ∃c.vPC entries of the benchmark
// workloads hold 0.6 (pmd, megamek) to 2.8 (stdlib-cs) rows per node.
// A projection that keeps contexts (∃v.vPC for q(c) :- vPC(c, _, "h"),
// or heap-cs's ∃c.cvP, which keeps heap contexts) can hold orders of
// magnitude more, and its literal reads the flat entry, as it would
// without headroom.
const pivotRowsPerNode = 8

// memoKey names one memo entry: a base relation, its projected-out
// attributes, sorted and comma-joined, and its layout: the pivoted
// attributes with their instances ("variable=V3"), sorted and
// comma-joined, or "" for the flat layout.
type memoKey struct {
	rel, wild, pivot string
}

// key returns the memo key of the literal's entry over relation name.
func (ms memoSpec) key(name string) memoKey {
	var pivot []string
	for a, p := range ms.pivot {
		pivot = append(pivot, a+"="+p.Name)
	}
	sort.Strings(pivot)
	return memoKey{rel: name, wild: strings.Join(ms.wild, ","), pivot: strings.Join(pivot, ",")}
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
		memo:      make(map[memoKey]memoEntry),
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

// projected returns the memo entry a query literal over the base
// relation src starts from: src with the sorted attributes ms.wild
// projected out, laid out as ms.pivot says. The first call for a key
// computes it under the calling query's controller and keeps it; later
// calls reuse it. Selecting on an attribute at the bottom of the
// variable order (vPC's heap, under V above C above H) must visit
// every node of the relation, while the projection of the contexts
// away is a fraction of its size, so a query pays that walk over the
// small relation instead. A fill that trips the query's budget panics
// out before the store and leaves no entry under its key (a pivoted
// fill keeps the flat entry it was built from).
//
// The pivoted layout removes the walk as well. When a literal selects
// or joins on attributes that lie below a free one (q(v) :- vPC(_, v,
// "h"), or the second literal of the alias join), pivotInstances puts
// the free variables on headroom instances, which sit below every main
// block. The entry holds those attributes there, so the bound ones are
// the topmost of the entry's BDD: the selection or join touches the
// answer's nodes only, and the rule's head renames the small answer
// back to the head relation's instances.
func (b *QueryBase) projected(s *Solver, src *rel.Relation, ms memoSpec) *rel.Relation {
	key := ms.key(src.Name)
	e, ok := b.memo[key]
	if ok {
		s.cMemoHits.Inc()
	} else {
		if s.tr != nil {
			s.tr.Begin("datalog.base_memo.fill", obs.A("relation", src.Name), obs.A("drop", key.wild), obs.A("pivot", key.pivot))
		}
		e = b.fill(src, ms, s.opts.Control)
		s.cMemoMisses.Inc()
		if s.tr != nil {
			s.tr.End()
		}
	}
	if e.pivoted {
		s.cMemoPivoted.Inc()
	}
	return e.r
}

// fill computes, freezes and keeps the memo entry for ms over src. A
// pivoted entry is built from the flat entry of the same wildcards,
// which it fills and keeps first if that is missing: the flat entry's
// rows, listed under the query's controller, are loaded bottom-up with
// the pivoted attributes on their headroom instances
// (bdd.Manager.TupleSet). On stdlib-cs that took less than half as long
// as a Replace moving V below H, and it leaves no garbage, where the
// Replace's garbage doubled each replica's node table. A flat entry
// with more than pivotRowsPerNode rows per node is not listed; the
// pivoted key holds it as it is.
func (b *QueryBase) fill(src *rel.Relation, ms memoSpec, ctl *resilience.Controller) memoEntry {
	key := ms.key(src.Name)
	if e, ok := b.memo[key]; ok {
		return e
	}
	var e memoEntry
	if ms.pivot == nil {
		e.r = src.ProjectOut("memo:"+src.Name, ms.wild...)
	} else {
		flat := b.fill(src, memoSpec{wild: ms.wild}, ctl).r
		if flat.Size().Cmp(big.NewInt(int64(pivotRowsPerNode*b.u.M.NodeCount(flat.Root())))) > 0 {
			b.memo[key] = memoEntry{r: flat}
			return b.memo[key]
		}
		attrs := slices.Clone(flat.Attrs())
		for i := range attrs {
			if p := ms.pivot[attrs[i].Name]; p != nil {
				attrs[i].Phys = p
			}
		}
		var rows [][]uint64
		flat.Iterate(func(t []uint64) bool {
			ctl.Poll()
			rows = append(rows, slices.Clone(t))
			return true
		})
		e = memoEntry{r: b.u.NewRelation("memo:"+src.Name, attrs...), pivoted: true}
		e.r.AddTuples(rows)
	}
	e.r.Freeze()
	b.memo[key] = e
	b.memoNodes += b.u.M.NodeCount(e.r.Root())
	return e
}

// pivotInstances decides which literals of one rule read a pivoted
// memo entry, and records the decision both in the rule's instance
// assignment asn and in its return value. It moves the free variables
// of each positive base literal with a `_` onto headroom instances
// when the literal binds an attribute (by a constant or a variable
// used elsewhere in the body) that lies below a free one in the
// variable order; need is raised to match. Free variables occur once
// in the body, so no other literal reads their instance. A literal
// whose free variables cannot all get a headroom instance the rule
// leaves unused keeps its assignment, and with it the flat entry.
//
// The result maps each pivoted literal's canonical position (its index
// in orderedLiterals) to its attributes' headroom instances; compileRule
// copies it into the literal's memoSpec. It is nil when no literal
// pivots.
func (b *QueryBase) pivotInstances(prog *Program, rule *Rule, asn, need map[string]int) []map[string]*bdd.Domain {
	lits := orderedLiterals(rule)
	uses := make(map[string]int)
	for _, l := range lits {
		for _, t := range l.Atom.Args {
			if t.Kind == TermVar {
				uses[t.Var]++
			}
		}
	}
	top := func(d *bdd.Domain) int32 { return slices.Min(d.Levels()) }
	var pivots []map[string]*bdd.Domain
	for li, l := range lits {
		r := b.rels[l.Atom.Pred]
		if r == nil || l.Negated || !slices.ContainsFunc(l.Atom.Args, func(t Term) bool { return t.Kind == TermWildcard }) {
			continue
		}
		attrs := r.Attrs()
		var free []int
		var lowest int32 = -1 // deepest top level among bound attributes
		for i, t := range l.Atom.Args {
			switch {
			case t.Kind == TermWildcard:
			case t.Kind == TermVar && uses[t.Var] == 1:
				free = append(free, i)
			default:
				lowest = max(lowest, top(attrs[i].Phys))
			}
		}
		if !slices.ContainsFunc(free, func(i int) bool { return top(attrs[i].Phys) < lowest }) {
			continue
		}
		// The instances every other variable of the rule occupies.
		type slot struct {
			dom  string
			inst int
		}
		taken := make(map[slot]bool)
		for v, inst := range asn {
			if uses[v] != 1 || !slices.ContainsFunc(l.Atom.Args, func(t Term) bool { return t.Var == v }) {
				taken[slot{varDomainOf(prog, rule, v), inst}] = true
			}
		}
		picks := make(map[int]slot, len(free))
		for _, i := range free {
			dom := attrs[i].Dom
			at := slot{dom.Name, b.u.PrimaryInstances(dom.Name)}
			for taken[at] {
				at.inst++
			}
			if at.inst >= dom.Instances() {
				picks = nil
				break
			}
			taken[at] = true
			picks[i] = at
		}
		if picks == nil {
			continue
		}
		if pivots == nil {
			pivots = make([]map[string]*bdd.Domain, len(lits))
		}
		pivots[li] = make(map[string]*bdd.Domain, len(picks))
		for i, at := range picks {
			asn[l.Atom.Args[i].Var] = at.inst
			need[at.dom] = max(need[at.dom], at.inst+1)
			pivots[li][attrs[i].Name] = b.u.Phys(at.dom, at.inst)
		}
	}
	return pivots
}

// QueryOptions configures one Eval.
type QueryOptions struct {
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
	pivots := make(map[*Rule][]map[string]*bdd.Domain)
	for _, rule := range prog.Rules {
		if rule.IsFact() {
			continue
		}
		asn, n := assignInstances(prog, rule)
		pivots[rule] = b.pivotInstances(prog, rule, asn, n)
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
	s.cMemoPivoted = s.reg.Counter("datalog.base_memo.pivoted")
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
		cr, err := s.compileRule(rule, assignments[rule], pivots[rule])
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
