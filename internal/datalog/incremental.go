package datalog

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"time"

	"bddbddb/internal/bdd"
	"bddbddb/internal/rel"
	"bddbddb/internal/resilience"
)

// Incremental re-solve: apply a delta of input tuples to an
// already-solved solver and bring the derived relations back to the
// fixpoint a from-scratch solve of the edited inputs would reach.
//
// The machinery is the semi-naive evaluator itself. Monotone
// (negation-free w.r.t. the change) strata take the fast path: the
// gained tuples of every changed predicate seed one delta pass per
// reading body position — the same plan.WithDelta variants the fixpoint
// loop uses — and the stratum then iterates its own semi-naive loop
// from the freshly derived frontier. Deletions, and strata that negate
// a changed predicate, fall back to re-solving the whole stratum from
// its fact baseline (correctness over cleverness); the recompute's head diff is classified again, so
// downstream strata whose effective change turns out to be add-only
// still take the fast path.
//
// Every update is transactional: the pre-update value of each input the
// delta edits is cloned up front, and each re-evaluated stratum's heads
// just before it runs; any failure — validation, budget, cancellation,
// or an injected fault — rolls the solver back to them bit-identically.

// ErrUpdateRejected classifies update deltas that are well-formed JSON
// but not applicable: unknown relations, derived (non-input) targets,
// arity or domain-range violations, unknown element names in removals.
var ErrUpdateRejected = errors.New("datalog: update rejected")

// UpdateRejectError carries the rejection reason.
type UpdateRejectError struct {
	Reason string
}

func (e *UpdateRejectError) Error() string { return "datalog: update rejected: " + e.Reason }

// Unwrap ties the error to the ErrUpdateRejected class.
func (e *UpdateRejectError) Unwrap() error { return ErrUpdateRejected }

func rejectUpdatef(format string, args ...any) error {
	return &UpdateRejectError{Reason: fmt.Sprintf(format, args...)}
}

// WireValue is one attribute value of a delta tuple on the wire:
// either a numeric domain index or an element name resolved through
// the domain's name table (names new to the solver are registered on
// the fly for additions, when the domain has spare capacity).
type WireValue struct {
	Num   uint64
	Name  string
	Named bool
}

// UnmarshalJSON accepts a JSON number (domain index) or string
// (element name).
func (v *WireValue) UnmarshalJSON(b []byte) error {
	t := bytes.TrimSpace(b)
	if len(t) > 0 && t[0] == '"' {
		v.Named = true
		return json.Unmarshal(t, &v.Name)
	}
	v.Named = false
	if err := json.Unmarshal(t, &v.Num); err != nil {
		return fmt.Errorf("delta value must be a domain index or an element name: %w", err)
	}
	return nil
}

// MarshalJSON round-trips the wire form.
func (v WireValue) MarshalJSON() ([]byte, error) {
	if v.Named {
		return json.Marshal(v.Name)
	}
	return json.Marshal(v.Num)
}

// WireTuple is one delta tuple on the wire.
type WireTuple []WireValue

// WireDelta is the JSON wire form of an input-tuple delta, keyed by
// relation name:
//
//	{"add":    {"store": [["x", "f", "y"], [3, 0, 5]]},
//	 "remove": {"assign": [["a", "b"]]}}
//
// Values are domain indices or element names; see WireValue.
type WireDelta struct {
	Add    map[string][]WireTuple `json:"add,omitempty"`
	Remove map[string][]WireTuple `json:"remove,omitempty"`
}

// Empty reports whether the delta carries no tuples at all.
func (wd WireDelta) Empty() bool {
	for _, ts := range wd.Add {
		if len(ts) > 0 {
			return false
		}
	}
	for _, ts := range wd.Remove {
		if len(ts) > 0 {
			return false
		}
	}
	return true
}

// Delta is a resolved input-tuple delta: concrete domain values, keyed
// by relation name. Additions are applied before removals, so a tuple
// present in both ends up absent.
type Delta struct {
	Add    map[string][][]uint64
	Remove map[string][][]uint64
}

// UpdateStats reports what one update did.
type UpdateStats struct {
	// Added / Removed count the tuples that actually changed input
	// relations (duplicates of existing tuples and removals of absent
	// tuples don't count).
	Added   int64 `json:"added"`
	Removed int64 `json:"removed"`
	// StrataResolved counts the strata the delta touched; StrataFast of
	// those took the semi-naive delta path, StrataRecomputed were
	// re-solved from their fact baseline.
	StrataResolved   int `json:"strata_resolved"`
	StrataFast       int `json:"strata_fast"`
	StrataRecomputed int `json:"strata_recomputed"`
	// Full marks a degradation to a full from-scratch re-solve
	// (LiveSolver's ladder, when the incremental path exceeds its
	// budget).
	Full bool `json:"full"`
	// Duration is the wall time of the re-solve.
	Duration time.Duration `json:"-"`
}

// IncrementalSolver wraps a solved Solver with the live-update
// lifecycle. It is single-threaded, like the solver itself: callers
// serialize updates externally (the serve layer holds one update at a
// time by construction).
type IncrementalSolver struct {
	s *Solver
	// defined marks relations that are the head of at least one
	// non-fact rule — the derived relations updates may not touch.
	defined map[string]bool
	// factTuples is the per-relation baseline the program's fact rules
	// assert — what a derived relation holds before any stratum runs,
	// and what a stratum recompute resets its heads to.
	factTuples map[string][][]uint64
}

// NewIncrementalSolver prepares s for live updates. The solver must
// have completed Solve and own its relations (query-base solvers
// evaluate against borrowed frozen snapshots and cannot be updated).
func NewIncrementalSolver(s *Solver) (*IncrementalSolver, error) {
	if !s.solved {
		return nil, fmt.Errorf("datalog: incremental solver requires a completed Solve")
	}
	if len(s.queryBase) > 0 {
		return nil, fmt.Errorf("datalog: incremental solver cannot wrap a query-base solver")
	}
	inc := &IncrementalSolver{
		s:          s,
		defined:    make(map[string]bool),
		factTuples: make(map[string][][]uint64),
	}
	for _, rule := range s.prog.Rules {
		if rule.IsFact() {
			continue
		}
		inc.defined[rule.Head.Pred] = true
	}
	for _, rule := range s.prog.Rules {
		if !rule.IsFact() {
			continue
		}
		decl := s.prog.Relation(rule.Head.Pred)
		vals := make([]uint64, len(rule.Head.Args))
		for i, t := range rule.Head.Args {
			v, err := s.resolveConst(t, decl.Attrs[i].Domain)
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		inc.factTuples[rule.Head.Pred] = append(inc.factTuples[rule.Head.Pred], vals)
	}
	return inc, nil
}

// Solver returns the wrapped solver.
func (inc *IncrementalSolver) Solver() *Solver { return inc.s }

// AddElemName registers a new element name at the end of the domain's
// name table and returns its index. Fails when the domain is full —
// size the domain with slack (analysis.Config.DomainSlack) to leave
// room for names arriving via updates. Registration survives a rolled
// back update: a name binding is metadata, not derived state.
func (s *Solver) AddElemName(domain, name string) (uint64, error) {
	ld := s.u.Domain(domain)
	if ld == nil {
		return 0, fmt.Errorf("datalog: unknown domain %q", domain)
	}
	names := ld.ElemNames()
	id := uint64(len(names))
	if id >= ld.Size {
		return 0, fmt.Errorf("datalog: domain %s is full (%d elements); no capacity for new name %q", domain, ld.Size, name)
	}
	updated := append(append([]string(nil), names...), name)
	ld.SetElemNames(updated)
	if s.elemIdx[domain] == nil {
		s.elemIdx[domain] = make(map[string]uint64)
	}
	s.elemIdx[domain][name] = id
	if s.opts.ElemNames == nil {
		s.opts.ElemNames = make(map[string][]string)
	}
	s.opts.ElemNames[domain] = updated
	return id, nil
}

// ElemIndex resolves an element name in a domain's name table.
func (s *Solver) ElemIndex(domain, name string) (uint64, bool) {
	v, ok := s.elemIdx[domain][name]
	return v, ok
}

// ResolveWire resolves a wire delta's element names into concrete
// domain values. Names unknown to an addition's domain are registered
// via AddElemName (new methods, new variables); removals may only name
// elements that already exist.
func (inc *IncrementalSolver) ResolveWire(wd WireDelta) (Delta, error) {
	out := Delta{}
	var err error
	if out.Add, err = inc.resolveSide(wd.Add, true); err != nil {
		return Delta{}, err
	}
	if out.Remove, err = inc.resolveSide(wd.Remove, false); err != nil {
		return Delta{}, err
	}
	return out, nil
}

func (inc *IncrementalSolver) resolveSide(side map[string][]WireTuple, allowNew bool) (map[string][][]uint64, error) {
	if len(side) == 0 {
		return nil, nil
	}
	s := inc.s
	out := make(map[string][][]uint64, len(side))
	for name, wts := range side {
		decl := s.prog.Relation(name)
		if decl == nil {
			return nil, rejectUpdatef("unknown relation %q", name)
		}
		rows := make([][]uint64, 0, len(wts))
		for _, wt := range wts {
			if len(wt) != len(decl.Attrs) {
				return nil, rejectUpdatef("relation %s has %d attributes, tuple has %d values", name, len(decl.Attrs), len(wt))
			}
			vals := make([]uint64, len(wt))
			for i, wv := range wt {
				dom := decl.Attrs[i].Domain
				if !wv.Named {
					vals[i] = wv.Num
					continue
				}
				if v, ok := s.elemIdx[dom][wv.Name]; ok {
					vals[i] = v
					continue
				}
				if !allowNew {
					return nil, rejectUpdatef("unknown %s element %q in removal (removals cannot introduce names)", dom, wv.Name)
				}
				v, err := s.AddElemName(dom, wv.Name)
				if err != nil {
					return nil, rejectUpdatef("%v", err)
				}
				vals[i] = v
			}
			rows = append(rows, vals)
		}
		out[name] = rows
	}
	return out, nil
}

// validate checks a resolved delta against the program: every target
// must be a declared non-derived relation, every value in range.
func (inc *IncrementalSolver) validate(d Delta) error {
	s := inc.s
	check := func(side map[string][][]uint64) error {
		for name, rows := range side {
			decl := s.prog.Relation(name)
			if decl == nil {
				return rejectUpdatef("unknown relation %q", name)
			}
			if inc.defined[name] {
				return rejectUpdatef("relation %s is derived by rules; only input relations accept deltas", name)
			}
			for _, vals := range rows {
				if len(vals) != len(decl.Attrs) {
					return rejectUpdatef("relation %s has %d attributes, tuple has %d values", name, len(decl.Attrs), len(vals))
				}
				for i, v := range vals {
					dom := s.u.Domain(decl.Attrs[i].Domain)
					if v >= dom.Size {
						return rejectUpdatef("relation %s attribute %s: value %d outside domain %s (size %d)",
							name, decl.Attrs[i].Name, v, dom.Name, dom.Size)
					}
				}
			}
		}
		return nil
	}
	if err := check(d.Add); err != nil {
		return err
	}
	return check(d.Remove)
}

// UpdateTxn is an applied-but-uncommitted update. The solver already
// holds the new fixpoint; Commit releases the undo state, Rollback
// restores every touched relation to its pre-update value. Exactly one
// of the two must be called.
type UpdateTxn struct {
	s    *Solver
	undo map[string]*rel.Relation
	// Stats describes the work the update performed.
	Stats UpdateStats
}

// Commit frees the undo clones, making the update permanent.
func (t *UpdateTxn) Commit() {
	for _, r := range t.undo {
		r.Free()
	}
	t.undo = nil
}

// Rollback restores every relation the update touched to its
// pre-update contents.
func (t *UpdateTxn) Rollback() {
	for name, r := range t.undo {
		t.s.ReplaceRelation(name, r)
	}
	t.undo = nil
}

// relFromTuples materializes rows as a relation with like's schema.
func relFromTuples(u *rel.Universe, name string, like *rel.Relation, rows [][]uint64) *rel.Relation {
	r := u.NewRelation(name, like.Attrs()...)
	r.AddTuples(rows)
	return r
}

// Update applies a resolved delta and incrementally re-solves the
// strata it touches, under ctl's budget. On success the returned
// transaction holds the undo state (Commit or Rollback it); on any
// error — rejection, budget, cancellation, injected fault — the solver
// is already rolled back and the error is returned with a nil txn.
func (inc *IncrementalSolver) Update(ctl *resilience.Controller, d Delta) (*UpdateTxn, error) {
	s := inc.s
	if err := inc.validate(d); err != nil {
		return nil, err
	}
	start := time.Now()
	// Install the update's controller for the duration of the update.
	prevCtl := s.opts.Control
	s.opts.Control = ctl
	s.u.M.SetControl(ctl)
	defer func() {
		s.opts.Control = prevCtl
		s.u.M.SetControl(prevCtl)
	}()
	txn := &UpdateTxn{s: s, undo: make(map[string]*rel.Relation)}
	err := func() (err error) {
		defer resilience.Recover(&err)
		resilience.FaultPoint(resilience.FaultUpdateApply)
		ctl.Check()

		changedInputs := make(map[string]bool)
		for name := range d.Add {
			changedInputs[name] = true
		}
		for name := range d.Remove {
			changedInputs[name] = true
		}
		for name := range changedInputs {
			txn.undo[name] = s.rels[name].Clone("undo:" + name)
		}

		// Apply the delta to the inputs. changedAdd holds each changed
		// predicate's gained tuples (owned); changedShrunk marks
		// predicates that lost tuples.
		changedAdd := make(map[string]*rel.Relation)
		changedShrunk := make(map[string]bool)
		defer func() {
			for _, r := range changedAdd {
				r.Free()
			}
		}()
		names := make([]string, 0, len(changedInputs))
		for name := range changedInputs {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			r := s.rels[name]
			if rows := d.Add[name]; len(rows) > 0 {
				add := relFromTuples(s.u, "add:"+name, r, rows)
				fresh := add.Minus("Δ+"+name, r)
				add.Free()
				if fresh.IsEmpty() {
					fresh.Free()
				} else {
					txn.Stats.Added += satInt64(fresh.Size())
					r.UnionWith(fresh)
					changedAdd[name] = fresh
				}
			}
			if rows := d.Remove[name]; len(rows) > 0 {
				rem := relFromTuples(s.u, "rem:"+name, r, rows)
				next := r.Minus(name, rem)
				rem.Free()
				if next.SameTuples(r) {
					next.Free()
				} else {
					removed := satInt64(r.Size()) - satInt64(next.Size())
					txn.Stats.Removed += removed
					s.ReplaceRelation(name, next)
					changedShrunk[name] = true
				}
			}
			// Recompute the surviving gains exactly: current minus undo.
			if changedAdd[name] != nil || changedShrunk[name] {
				if g := changedAdd[name]; g != nil {
					g.Free()
					delete(changedAdd, name)
				}
				gained := s.rels[name].Minus("Δ+"+name, txn.undo[name])
				if gained.IsEmpty() {
					gained.Free()
				} else {
					changedAdd[name] = gained
				}
				lost := txn.undo[name].Minus("Δ-"+name, s.rels[name])
				changedShrunk[name] = !lost.IsEmpty()
				lost.Free()
			}
		}
		changedAny := make(map[string]bool)
		for name := range changedAdd {
			changedAny[name] = true
		}
		for name, shrunk := range changedShrunk {
			if shrunk {
				changedAny[name] = true
			}
		}
		if len(changedAny) == 0 {
			return nil // no effective change; fixpoint already holds
		}

		resilience.FaultPoint(resilience.FaultUpdateResolve)
		// One forward pass in evaluation order: a stratum runs when an
		// outside predicate it reads changed, and only then keeps its
		// heads' values for undo — they are still the pre-update ones,
		// since only the stratum itself writes them.
		for i, st := range s.strata {
			touched, fast := false, !s.opts.NoIncrementalization
			for _, p := range st.reads {
				if changedAny[p] {
					touched = true
					fast = fast && !st.negated[p] && !changedShrunk[p] && changedAdd[p] != nil
				}
			}
			if !touched {
				continue
			}
			for _, h := range st.preds {
				txn.undo[h] = s.rels[h].Clone("undo:" + h)
			}
			txn.Stats.StrataResolved++
			if fast {
				inc.propagateStratum(i, st, changedAdd)
				txn.Stats.StrataFast++
			} else {
				inc.recomputeStratum(i, st)
				txn.Stats.StrataRecomputed++
			}
			// Classify each head's effective change against its
			// pre-update value so downstream strata pick the right path.
			for _, h := range st.preds {
				old := txn.undo[h]
				cur := s.rels[h]
				gained := cur.Minus("Δ+"+h, old)
				if gained.IsEmpty() {
					gained.Free()
				} else {
					changedAdd[h] = gained
					changedAny[h] = true
				}
				lost := old.Minus("Δ-"+h, cur)
				if !lost.IsEmpty() {
					changedShrunk[h] = true
					changedAny[h] = true
				}
				lost.Free()
			}
		}
		return nil
	}()
	if err != nil {
		txn.Rollback()
		return nil, err
	}
	txn.Stats.Duration = time.Since(start)
	return txn, nil
}

// propagateStratum runs the fast path for one stratum: every rule
// fires once per body position reading a changed outside predicate
// with that predicate's gained tuples as the delta (the other literals
// see full current values), and the stratum's own semi-naive loop then
// iterates from the freshly derived frontier. Sound for add-only
// changes because semi-naive evaluation is exactly this delta algebra:
// any new derivation uses at least one gained tuple somewhere, and the
// pass for that position (or a later frontier iteration) fires it.
func (inc *IncrementalSolver) propagateStratum(idx int, st *stratum, changedAdd map[string]*rel.Relation) {
	s := inc.s
	s.withStratum(idx, st, func(run *stratumRun) {
		// One delta pass per (rule, changed outside position), in
		// program order: a pass reads the heads the passes before it
		// grew.
		delta := make(map[string]*rel.Relation)
		for _, rule := range st.rules {
			if rule.IsFact() {
				continue
			}
			cr := s.compiled[rule]
			for pos := range cr.naive.Lits {
				l := &cr.naive.Lits[pos]
				if l.Negated || run.inStratum[l.Pred] {
					continue
				}
				if g := changedAdd[l.Pred]; g != nil && !g.IsEmpty() {
					s.derive(run, cr, cr.optimize(pos, run.card), g, delta)
				}
			}
		}
		s.seminaive(run, delta)
	})
}

// recomputeStratum resets the stratum's heads to their fact baseline
// and re-runs the stratum's full evaluation — the deletion fallback.
func (inc *IncrementalSolver) recomputeStratum(idx int, st *stratum) {
	s := inc.s
	for _, h := range st.preds {
		old := s.rels[h]
		base := s.u.NewRelation(h, old.Attrs()...)
		base.AddTuples(inc.factTuples[h])
		s.ReplaceRelation(h, base)
	}
	s.solveStratum(idx, st)
}

// inputNames lists the relations no non-fact rule defines, in
// declaration order — the relations Rebase copies verbatim (fills,
// facts, and materialized inputs like IEC/vC alike).
func (inc *IncrementalSolver) inputNames() []string {
	var out []string
	for _, rd := range inc.s.prog.Relations {
		if !inc.defined[rd.Name] {
			out = append(out, rd.Name)
		}
	}
	return out
}

// copyRelations transfers the named relations from src to dst through
// one shared BDD DAG dump. Both solvers must have been built from the
// same program and options, which pins an identical variable layout.
func copyRelations(src, dst *Solver, names []string) error {
	roots := make([]bdd.Node, 0, len(names))
	for _, n := range names {
		roots = append(roots, src.rels[n].Root())
	}
	var buf bytes.Buffer
	if err := src.u.M.WriteDAG(&buf, roots); err != nil {
		return err
	}
	dstRoots, err := dst.u.M.ReadDAG(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return err
	}
	for i, n := range names {
		old := dst.rels[n]
		dst.ReplaceRelation(n, dst.u.NewRelationFromBDD(n, dstRoots[i], old.Attrs()...))
	}
	return nil
}

// ApplyDeltaToRelations applies a resolved delta directly to a
// solver's relations (additions, then removals) with no re-solve —
// the primitive Rebase and the differential tests' from-scratch oracle
// share, via Options.PreSolve.
func ApplyDeltaToRelations(s *Solver, d Delta) {
	names := make([]string, 0, len(d.Add))
	for name := range d.Add {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s.rels[name].AddTuples(d.Add[name])
	}
	names = names[:0]
	for name := range d.Remove {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r := s.rels[name]
		rem := relFromTuples(s.u, "rem:"+name, r, d.Remove[name])
		next := r.Minus(name, rem)
		rem.Free()
		s.ReplaceRelation(name, next)
	}
}

// Rebase runs a full from-scratch re-solve of the program with the
// delta applied — the bottom rung of the degradation ladder. The
// current solver is left untouched: the new solver copies the live
// input relations (facts included, prior updates included), applies
// the delta, and solves under ctl. Adopt the returned solver on
// success; the old one simply becomes garbage.
func (inc *IncrementalSolver) Rebase(ctl *resilience.Controller, d Delta) (*Solver, error) {
	if err := inc.validate(d); err != nil {
		return nil, err
	}
	s := inc.s
	opts := s.opts
	opts.Control = ctl
	inputs := inc.inputNames()
	opts.PreSolve = func(ns *Solver) error {
		// Input relations carry their live contents verbatim (the copy
		// overwrites the facts applyFacts just re-asserted, which is
		// what makes previously removed fact tuples stay removed);
		// derived relations keep only their fact baseline.
		if err := copyRelations(s, ns, inputs); err != nil {
			return err
		}
		ApplyDeltaToRelations(ns, d)
		return nil
	}
	ns, err := NewSolver(s.prog, opts)
	if err != nil {
		return nil, err
	}
	if err := ns.Solve(); err != nil {
		return nil, err
	}
	return ns, nil
}

// ContentFingerprint identifies the contents of every declared
// relation: bdd.Fingerprint of their roots' structural hashes, in
// declaration order — the value serve.Snapshot.Fingerprint (and so
// /healthz) reports for the same relations. BDDs are canonical under a
// fixed variable layout, so two solvers built from the same program
// and options have equal fingerprints when every relation holds the
// same tuple set, and, short of a hash collision, different ones
// otherwise — the differential suites' bit-identity check.
func (s *Solver) ContentFingerprint() (string, error) {
	roots := make([]bdd.Node, 0, len(s.prog.Relations))
	for _, rd := range s.prog.Relations {
		roots = append(roots, s.rels[rd.Name].Root())
	}
	return bdd.Fingerprint(s.u.M.RootHashes(roots)), nil
}

// LiveSolver is the full degradation ladder over one solver: resolve
// the wire delta, try the incremental path under the caller's budget,
// and fall back to a detached full re-solve when the budget trips.
// It implements the serve layer's Updater contract: Begin prepares the
// new state (the solver returned by Solver() reflects it), then
// exactly one of Commit or Rollback finishes the update.
type LiveSolver struct {
	inc           *IncrementalSolver
	pendingTxn    *UpdateTxn
	pendingSolver *Solver
}

// NewLiveSolver wraps a solved solver for live updates.
func NewLiveSolver(s *Solver) (*LiveSolver, error) {
	inc, err := NewIncrementalSolver(s)
	if err != nil {
		return nil, err
	}
	return &LiveSolver{inc: inc}, nil
}

// Solver returns the solver reflecting the latest Begin (the pending
// rebased solver during a degraded update, the live solver otherwise).
func (l *LiveSolver) Solver() *Solver {
	if l.pendingSolver != nil {
		return l.pendingSolver
	}
	return l.inc.s
}

// Begin applies wd under ctl's budget. On return with nil error the
// update is applied but uncommitted: Solver() holds the new fixpoint,
// and the caller must Commit or Rollback. A budget violation or
// cancellation on the incremental path degrades to a full re-solve
// detached from the exhausted budget (Stats.Full reports it); other
// errors abort with the solver already rolled back.
func (l *LiveSolver) Begin(ctl *resilience.Controller, wd WireDelta) (UpdateStats, error) {
	if l.pendingTxn != nil || l.pendingSolver != nil {
		return UpdateStats{}, fmt.Errorf("datalog: update already pending (missing Commit/Rollback)")
	}
	if wd.Empty() {
		return UpdateStats{}, rejectUpdatef("empty delta")
	}
	d, err := l.inc.ResolveWire(wd)
	if err != nil {
		return UpdateStats{}, err
	}
	start := time.Now()
	txn, err := l.inc.Update(ctl, d)
	if err == nil {
		l.pendingTxn = txn
		return txn.Stats, nil
	}
	if !errors.Is(err, resilience.ErrBudgetExceeded) && !errors.Is(err, resilience.ErrCanceled) {
		return UpdateStats{}, err
	}
	// Degradation ladder: the incremental path exhausted its budget (the
	// solver is already rolled back). Re-solve from scratch, detached
	// from the tripped budget — a degraded update is only useful if it
	// can finish (mirrors analysis.degrade).
	ns, rerr := l.inc.Rebase(resilience.NewController(context.Background(), resilience.Budget{}), d)
	if rerr != nil {
		return UpdateStats{}, fmt.Errorf("datalog: full re-solve after budget degradation: %w", rerr)
	}
	l.pendingSolver = ns
	st := UpdateStats{Full: true, Duration: time.Since(start)}
	for _, rows := range d.Add {
		st.Added += int64(len(rows))
	}
	for _, rows := range d.Remove {
		st.Removed += int64(len(rows))
	}
	return st, nil
}

// Commit makes the pending update permanent. After a degraded (full
// re-solve) update the live solver is replaced wholesale; the previous
// one becomes garbage.
func (l *LiveSolver) Commit() {
	if l.pendingSolver != nil {
		inc, err := NewIncrementalSolver(l.pendingSolver)
		if err != nil {
			// The rebased solver completed Solve and owns its relations;
			// NewIncrementalSolver cannot fail on it.
			panic(err)
		}
		l.inc = inc
		l.pendingSolver = nil
		l.pendingTxn = nil
		return
	}
	if l.pendingTxn != nil {
		l.pendingTxn.Commit()
		l.pendingTxn = nil
	}
}

// Rollback discards the pending update, restoring the pre-Begin state.
func (l *LiveSolver) Rollback() {
	if l.pendingTxn != nil {
		l.pendingTxn.Rollback()
		l.pendingTxn = nil
	}
	l.pendingSolver = nil
}
