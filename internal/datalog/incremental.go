package datalog

import (
	"bytes"
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
// just before it runs; any failure — budget, cancellation, or an
// injected fault — rolls the solver back to them bit-identically. A
// rejected delta never gets that far: it is checked whole before
// anything, element names included, is registered.

// ErrUpdateRejected classifies update deltas that are well-formed JSON
// but not applicable: unknown relations, derived (non-input) targets,
// arity or domain-range violations, element names on a domain without
// a name table, unknown element names in removals, and new names on a
// full domain.
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
// the fly for additions, when the domain has spare capacity). Only
// domains given a name table (Options.ElemNames) accept names.
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
	// Added / Removed count the tuples the input relations gained and
	// lost: the net change, so duplicates of existing tuples, removals
	// of absent tuples and tuples both added and removed don't count.
	Added   int64 `json:"added"`
	Removed int64 `json:"removed"`
	// StrataResolved counts the strata the delta touched; StrataFast of
	// those took the semi-naive delta path, StrataRecomputed were
	// re-solved from their fact baseline.
	StrataResolved   int `json:"strata_resolved"`
	StrataFast       int `json:"strata_fast"`
	StrataRecomputed int `json:"strata_recomputed"`
	// Full marks an update whose incremental path exceeded its budget:
	// it was rolled back and re-run unbudgeted, every stratum it reaches
	// recomputed from its fact baseline — the from-scratch computation
	// scoped to the affected strata.
	Full bool `json:"full"`
	// Duration is the wall time of the re-solve, a degraded update's
	// failed incremental attempt included.
	Duration time.Duration `json:"-"`
}

// LiveSolver applies live updates to a solved Solver. Begin applies a
// delta and leaves it pending — Solver() then holds the new fixpoint —
// and exactly one of Commit or Rollback finishes it. It implements the
// serve layer's Updater contract. It is single-threaded, like the
// solver itself: callers serialize updates (the serve layer holds one
// update at a time by construction).
type LiveSolver struct {
	s *Solver
	// derived marks relations that are the head of at least one
	// non-fact rule — the relations updates may not touch.
	derived map[string]bool
	// undo holds, from Begin until Commit or Rollback, the pre-update
	// value of every relation the pending update changed; it is nil
	// when no update is pending.
	undo map[string]*rel.Relation
}

// NewLiveSolver prepares s for live updates. The solver must have
// completed Solve and own its relations (query-base solvers evaluate
// against borrowed frozen snapshots and cannot be updated).
func NewLiveSolver(s *Solver) (*LiveSolver, error) {
	if !s.solved {
		return nil, fmt.Errorf("datalog: live solver requires a completed Solve")
	}
	if len(s.queryBase) > 0 {
		return nil, fmt.Errorf("datalog: live solver cannot wrap a query-base solver")
	}
	l := &LiveSolver{s: s, derived: make(map[string]bool)}
	for _, rule := range s.prog.Rules {
		if !rule.IsFact() {
			l.derived[rule.Head.Pred] = true
		}
	}
	return l, nil
}

// Solver returns the live solver; during a pending update it holds the
// update's fixpoint.
func (l *LiveSolver) Solver() *Solver { return l.s }

// ElemIndex resolves an element name in a domain's name table.
func (s *Solver) ElemIndex(domain, name string) (uint64, bool) {
	v, ok := s.elemIdx[domain][name]
	return v, ok
}

// Begin applies wd under ctl's budget. On return with nil error the
// update is applied but pending: Solver() holds the new fixpoint, and
// the caller must Commit or Rollback. A budget violation or
// cancellation on the incremental path rolls the update back and
// re-runs it with no controller, recomputing every stratum it reaches
// (Stats.Full reports it). Any other error leaves the solver as it
// was before Begin.
func (l *LiveSolver) Begin(ctl *resilience.Controller, wd WireDelta) (UpdateStats, error) {
	if l.undo != nil {
		return UpdateStats{}, fmt.Errorf("datalog: update already pending (missing Commit/Rollback)")
	}
	d, err := l.resolve(wd)
	if err != nil {
		return UpdateStats{}, err
	}
	start := time.Now()
	st, err := l.update(ctl, d, false)
	if errors.Is(err, resilience.ErrBudgetExceeded) || errors.Is(err, resilience.ErrCanceled) {
		// A degraded update is only useful if it can finish, so it runs
		// detached from the tripped budget (mirrors analysis.degrade).
		if st, err = l.update(nil, d, true); err != nil {
			err = fmt.Errorf("datalog: degraded update: %w", err)
		}
		st.Full = true
	}
	if err != nil {
		return UpdateStats{}, err
	}
	st.Duration = time.Since(start)
	return st, nil
}

// Commit makes the pending update permanent, freeing its undo clones.
func (l *LiveSolver) Commit() {
	for _, r := range l.undo {
		r.Free()
	}
	l.undo = nil
}

// Rollback restores every relation the pending update changed to its
// pre-update contents. Element names the update registered stay: a name
// binding is metadata, not derived state.
func (l *LiveSolver) Rollback() {
	for name, r := range l.undo {
		l.s.ReplaceRelation(name, r)
	}
	l.undo = nil
}

// resolve checks wd against the program and the domains' name tables
// and turns it into domain values. The whole delta is checked before
// any name is registered, so a rejected delta leaves the name tables
// as they were: every target must be a declared input relation, every
// tuple have the relation's arity, every index lie in its domain, and
// every name belong to a domain with a name table. Removals may only
// name known elements (or ones this delta's additions introduce);
// additions register unknown names at the end of the table, while the
// domain has room.
func (l *LiveSolver) resolve(wd WireDelta) (Delta, error) {
	if wd.Empty() {
		return Delta{}, rejectUpdatef("empty delta")
	}
	// added maps each domain's names new in this delta to the indices
	// they will take.
	added := make(map[string]map[string]uint64)
	var d Delta
	var err error
	if d.Add, err = l.resolveSide(wd.Add, true, added); err != nil {
		return Delta{}, err
	}
	if d.Remove, err = l.resolveSide(wd.Remove, false, added); err != nil {
		return Delta{}, err
	}
	// The delta is valid: register its new names. The table is copied,
	// never appended to in place, since the solver's first table is the
	// caller's Options.ElemNames slice.
	s := l.s
	for dom, names := range added {
		ld := s.u.Domain(dom)
		table := append([]string(nil), ld.ElemNames()...)
		table = append(table, make([]string, len(names))...)
		for name, v := range names {
			table[v] = name
			s.elemIdx[dom][name] = v
		}
		ld.SetElemNames(table)
	}
	return d, nil
}

// resolveSide checks and resolves one side of a wire delta, relations
// in name order.
func (l *LiveSolver) resolveSide(side map[string][]WireTuple, add bool, added map[string]map[string]uint64) (map[string][][]uint64, error) {
	if len(side) == 0 {
		return nil, nil
	}
	names := make([]string, 0, len(side))
	for name := range side {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make(map[string][][]uint64, len(side))
	for _, name := range names {
		decl := l.s.prog.Relation(name)
		if decl == nil {
			return nil, rejectUpdatef("unknown relation %q", name)
		}
		if l.derived[name] {
			return nil, rejectUpdatef("relation %s is derived by rules; only input relations accept deltas", name)
		}
		rows := make([][]uint64, 0, len(side[name]))
		for _, wt := range side[name] {
			if len(wt) != len(decl.Attrs) {
				return nil, rejectUpdatef("relation %s has %d attributes, tuple has %d values", name, len(decl.Attrs), len(wt))
			}
			vals := make([]uint64, len(wt))
			for i, wv := range wt {
				v, err := l.resolveValue(decl, i, wv, add, added)
				if err != nil {
					return nil, err
				}
				vals[i] = v
			}
			rows = append(rows, vals)
		}
		out[name] = rows
	}
	return out, nil
}

// resolveValue checks and resolves wv as the value of decl's attribute
// i. A name new on an addition takes its domain's next free index,
// recorded in added but not yet registered.
func (l *LiveSolver) resolveValue(decl *RelationDecl, i int, wv WireValue, add bool, added map[string]map[string]uint64) (uint64, error) {
	dom := l.s.u.Domain(decl.Attrs[i].Domain)
	if !wv.Named {
		if wv.Num >= dom.Size {
			return 0, rejectUpdatef("relation %s attribute %s: value %d outside domain %s (size %d)",
				decl.Name, decl.Attrs[i].Name, wv.Num, dom.Name, dom.Size)
		}
		return wv.Num, nil
	}
	idx := l.s.elemIdx[dom.Name]
	if idx == nil {
		return 0, rejectUpdatef("%s element %q: domain %s has no name table; give its index", decl.Name, wv.Name, dom.Name)
	}
	if v, ok := idx[wv.Name]; ok {
		return v, nil
	}
	if v, ok := added[dom.Name][wv.Name]; ok {
		return v, nil
	}
	if !add {
		return 0, rejectUpdatef("unknown %s element %q in removal (removals cannot introduce names)", dom.Name, wv.Name)
	}
	v := uint64(len(dom.ElemNames()) + len(added[dom.Name]))
	if v >= dom.Size {
		return 0, rejectUpdatef("domain %s is full (%d elements); no capacity for new name %q", dom.Name, dom.Size, wv.Name)
	}
	if added[dom.Name] == nil {
		added[dom.Name] = make(map[string]uint64)
	}
	added[dom.Name][wv.Name] = v
	return v, nil
}

// update applies d to the inputs and re-solves the strata it reaches
// under ctl's budget; with full set, each of those strata is recomputed
// from its fact baseline. On success l.undo holds the update's undo
// state; on any error the solver is already rolled back.
func (l *LiveSolver) update(ctl *resilience.Controller, d Delta, full bool) (st UpdateStats, err error) {
	s := l.s
	// Install the update's controller for the duration of the update.
	prevCtl := s.opts.Control
	s.opts.Control = ctl
	s.u.M.SetControl(ctl)
	defer func() {
		s.opts.Control = prevCtl
		s.u.M.SetControl(prevCtl)
	}()
	l.undo = make(map[string]*rel.Relation)
	// changedAdd holds each changed predicate's gained tuples (owned);
	// changedShrunk marks predicates that lost tuples.
	changedAdd := make(map[string]*rel.Relation)
	changedShrunk := make(map[string]bool)
	defer func() {
		for _, r := range changedAdd {
			r.Free()
		}
		if err != nil {
			l.Rollback()
		}
	}()
	defer resilience.Recover(&err)
	resilience.FaultPoint(resilience.FaultUpdateApply)
	ctl.Check()

	// classify records name's change against its pre-update value, so
	// the strata after it pick the right path, and returns the lost
	// tuples (owned by the caller).
	classify := func(name string) *rel.Relation {
		old, cur := l.undo[name], s.rels[name]
		if gained := cur.Minus("Δ+"+name, old); gained.IsEmpty() {
			gained.Free()
		} else {
			changedAdd[name] = gained
		}
		lost := old.Minus("Δ-"+name, cur)
		changedShrunk[name] = !lost.IsEmpty()
		return lost
	}
	changed := func(p string) bool { return changedAdd[p] != nil || changedShrunk[p] }

	inputs := make([]string, 0, len(d.Add)+len(d.Remove))
	for _, side := range []map[string][][]uint64{d.Add, d.Remove} {
		for name := range side {
			if l.undo[name] == nil {
				l.undo[name] = s.rels[name].Clone("undo:" + name)
				inputs = append(inputs, name)
			}
		}
	}
	sort.Strings(inputs)
	ApplyDeltaToRelations(s, d)
	anyChanged := false
	for _, name := range inputs {
		lost := classify(name)
		if g := changedAdd[name]; g != nil {
			st.Added += satInt64(g.Size())
		}
		st.Removed += satInt64(lost.Size())
		lost.Free()
		anyChanged = anyChanged || changed(name)
	}
	if !anyChanged {
		return st, nil // no effective change; fixpoint already holds
	}

	resilience.FaultPoint(resilience.FaultUpdateResolve)
	// One forward pass in evaluation order: a stratum runs when an
	// outside predicate it reads changed, and only then keeps its
	// heads' values for undo — they are still the pre-update ones,
	// since only the stratum itself writes them.
	for i, stm := range s.strata {
		touched, fast := false, !full && !s.opts.NoIncrementalization
		for _, p := range stm.reads {
			if changed(p) {
				touched = true
				fast = fast && !stm.negated[p] && !changedShrunk[p] && changedAdd[p] != nil
			}
		}
		if !touched {
			continue
		}
		for _, h := range stm.preds {
			l.undo[h] = s.rels[h].Clone("undo:" + h)
		}
		st.StrataResolved++
		if fast {
			s.propagateStratum(i, stm, changedAdd)
			st.StrataFast++
		} else {
			s.recomputeStratum(i, stm)
			st.StrataRecomputed++
		}
		for _, h := range stm.preds {
			classify(h).Free()
		}
	}
	return st, nil
}

// propagateStratum runs the fast path for one stratum: every rule
// fires once per body position reading a changed outside predicate
// with that predicate's gained tuples as the delta (the other literals
// see full current values), and the stratum's own semi-naive loop then
// iterates from the freshly derived frontier. Sound for add-only
// changes because semi-naive evaluation is exactly this delta algebra:
// any new derivation uses at least one gained tuple somewhere, and the
// pass for that position (or a later frontier iteration) fires it.
func (s *Solver) propagateStratum(idx int, st *stratum, changedAdd map[string]*rel.Relation) {
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
func (s *Solver) recomputeStratum(idx int, st *stratum) {
	for _, h := range st.preds {
		base := s.u.NewRelation(h, s.rels[h].Attrs()...)
		base.AddTuples(s.facts[h])
		s.ReplaceRelation(h, base)
	}
	s.solveStratum(idx, st)
}

// ApplyDeltaToRelations applies a resolved delta directly to a
// solver's relations (additions, then removals) with no re-solve —
// the primitive a live update and the differential tests' from-scratch
// oracle share, the latter via Options.PreSolve.
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
		rem := s.u.NewRelation("rem:"+name, r.Attrs()...)
		rem.AddTuples(d.Remove[name])
		next := r.Minus(name, rem)
		rem.Free()
		s.ReplaceRelation(name, next)
	}
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
