package datalog

import (
	"fmt"
	"sort"
	"strings"

	"bddbddb/internal/datalog/check"
)

// NaiveSolver evaluates the same Datalog dialect over explicit tuple
// sets (hash sets of rows) instead of BDDs. It serves two purposes:
// a differential-testing oracle for the BDD solver, and the
// explicit-representation baseline of the paper's central claim that
// only BDDs survive the context-sensitive blowup (Sections 1.1, 4).
//
// It evaluates semi-naively, but its joins are nested loops: for each
// binding, applyRuleDelta scans every row of the next literal's table,
// with no index on the bound columns. It is therefore a slow baseline,
// and the BDD-vs-explicit ratios measured against it overstate the
// gap to an indexed explicit evaluator.
type NaiveSolver struct {
	prog    *Program
	sizes   map[string]uint64
	elemIdx map[string]map[string]uint64
	rels    map[string]*tupleTable
	strata  []*stratum
	solved  bool
	stats   SolverStats
}

// tupleTable is a set of rows.
type tupleTable struct {
	arity int
	rows  map[string][]uint64
}

func newTupleTable(arity int) *tupleTable {
	return &tupleTable{arity: arity, rows: make(map[string][]uint64)}
}

func rowKey(vals []uint64) string {
	var b strings.Builder
	for _, v := range vals {
		fmt.Fprintf(&b, "%d,", v)
	}
	return b.String()
}

func (t *tupleTable) add(vals []uint64) bool {
	k := rowKey(vals)
	if _, ok := t.rows[k]; ok {
		return false
	}
	t.rows[k] = append([]uint64(nil), vals...)
	return true
}

func (t *tupleTable) has(vals []uint64) bool {
	_, ok := t.rows[rowKey(vals)]
	return ok
}

func (t *tupleTable) len() int { return len(t.rows) }

// NewNaiveSolver prepares an explicit-representation evaluation of prog.
// Only DomainSizes and ElemNames are honoured from opts. Like NewSolver,
// it runs the semantic checker first.
func NewNaiveSolver(prog *Program, opts Options) (*NaiveSolver, error) {
	diags := check.ProgramOpts(prog, check.Options{DomainSizes: opts.DomainSizes})
	if err := diags.Err(); err != nil {
		return nil, err
	}
	strata, err := stratify(prog)
	if err != nil {
		return nil, err
	}
	ns := &NaiveSolver{
		prog:    prog,
		sizes:   make(map[string]uint64),
		elemIdx: make(map[string]map[string]uint64),
		rels:    make(map[string]*tupleTable),
		strata:  strata,
	}
	for _, d := range prog.Domains {
		size := d.Size
		if o, ok := opts.DomainSizes[d.Name]; ok {
			size = o
		}
		ns.sizes[d.Name] = size
	}
	for dom, names := range opts.ElemNames {
		idx := make(map[string]uint64, len(names))
		for i, n := range names {
			idx[n] = uint64(i)
		}
		ns.elemIdx[dom] = idx
	}
	for _, r := range prog.Relations {
		ns.rels[r.Name] = newTupleTable(r.Arity())
	}
	return ns, nil
}

// NaiveReplay returns an unsolved NaiveSolver over s's program, domain
// sizes and element names that holds every relation's current tuples.
// Called from Options.PreSolve — facts applied, no stratum run yet —
// it captures exactly the input s is about to evaluate, so solving the
// replay yields an independent oracle for every relation s derives.
func NaiveReplay(s *Solver) (*NaiveSolver, error) {
	ns, err := NewNaiveSolver(s.prog, s.opts)
	if err != nil {
		return nil, err
	}
	for _, rd := range s.prog.Relations {
		t := ns.rels[rd.Name]
		s.rels[rd.Name].Iterate(func(vals []uint64) bool {
			t.add(vals)
			return true
		})
	}
	return ns, nil
}

// AddTuple loads one input tuple before Solve.
//
// Panic audit: the panics below guard the Go API, not user input. The
// naive solver is driven by tests and the analysis pipeline, which take
// relation names and arities from program declarations; external tuple
// files are validated (DL110) before any Add call in cmd/bddbddb.
func (ns *NaiveSolver) AddTuple(relName string, vals ...uint64) {
	t := ns.rels[relName]
	if t == nil {
		panic(fmt.Sprintf("datalog: unknown relation %q", relName))
	}
	if len(vals) != t.arity {
		panic(fmt.Sprintf("datalog: %s has arity %d, got %d values", relName, t.arity, len(vals)))
	}
	t.add(vals)
}

// Tuples returns the relation's rows in a deterministic order.
func (ns *NaiveSolver) Tuples(relName string) [][]uint64 {
	t := ns.rels[relName]
	if t == nil {
		panic(fmt.Sprintf("datalog: unknown relation %q", relName))
	}
	keys := make([]string, 0, len(t.rows))
	for k := range t.rows {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([][]uint64, len(keys))
	for i, k := range keys {
		out[i] = t.rows[k]
	}
	return out
}

// Count returns the relation's cardinality.
func (ns *NaiveSolver) Count(relName string) int { return ns.rels[relName].len() }

// Stats reports evaluation statistics.
func (ns *NaiveSolver) Stats() SolverStats { return ns.stats }

func (ns *NaiveSolver) resolveConst(t Term, domain string) (uint64, error) {
	switch t.Kind {
	case TermConst:
		return t.Val, nil
	case TermNamedConst:
		idx, ok := ns.elemIdx[domain]
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

// Solve evaluates to fixpoint.
func (ns *NaiveSolver) Solve() error {
	if ns.solved {
		return fmt.Errorf("datalog: Solve called twice")
	}
	ns.solved = true
	for _, rule := range ns.prog.Rules {
		if !rule.IsFact() {
			continue
		}
		decl := ns.prog.Relation(rule.Head.Pred)
		vals := make([]uint64, len(rule.Head.Args))
		for i, t := range rule.Head.Args {
			v, err := ns.resolveConst(t, decl.Attrs[i].Domain)
			if err != nil {
				return check.Errorf(check.CodeConstRange, ns.prog.File, t.Line, t.Col, "%v", err)
			}
			vals[i] = v
		}
		ns.rels[rule.Head.Pred].add(vals)
	}
	for _, st := range ns.strata {
		if err := ns.solveStratum(st); err != nil {
			return err
		}
	}
	return nil
}

func (ns *NaiveSolver) solveStratum(st *stratum) error {
	isRecursive := func(rule *Rule) bool {
		for _, lit := range rule.Body {
			if !lit.Negated && st.in[lit.Atom.Pred] {
				return true
			}
		}
		return false
	}
	for _, rule := range st.rules {
		if rule.IsFact() || isRecursive(rule) {
			continue
		}
		if err := ns.applyRule(rule, nil); err != nil {
			return err
		}
	}
	var recur []*Rule
	for _, rule := range st.rules {
		if !rule.IsFact() && isRecursive(rule) {
			recur = append(recur, rule)
		}
	}
	if len(recur) == 0 {
		return nil
	}
	// Semi-naive: delta holds the rows added in the previous round.
	delta := make(map[string]*tupleTable)
	for _, p := range st.preds {
		if t, ok := ns.rels[p]; ok {
			d := newTupleTable(t.arity)
			for _, row := range t.rows {
				d.add(row)
			}
			delta[p] = d
		}
	}
	for {
		ns.stats.Iterations++
		newDelta := make(map[string]*tupleTable)
		changed := false
		for _, rule := range recur {
			headTable := ns.rels[rule.Head.Pred]
			for pos, lit := range orderedLiterals(rule) {
				if lit.Negated || !st.in[lit.Atom.Pred] {
					continue
				}
				d := delta[lit.Atom.Pred]
				if d == nil || d.len() == 0 {
					continue
				}
				before := headTable.len()
				if err := ns.applyRuleDelta(rule, pos, d, func(row []uint64) {
					if headTable.add(row) {
						nd := newDelta[rule.Head.Pred]
						if nd == nil {
							nd = newTupleTable(headTable.arity)
							newDelta[rule.Head.Pred] = nd
						}
						nd.add(row)
					}
				}); err != nil {
					return err
				}
				if headTable.len() != before {
					changed = true
				}
			}
		}
		delta = newDelta
		if !changed {
			return nil
		}
	}
}

func (ns *NaiveSolver) applyRule(rule *Rule, emitOverride func([]uint64)) error {
	return ns.applyRuleDelta(rule, -1, nil, emitOverride)
}

// applyRuleDelta enumerates all satisfying bindings of the rule body
// (literal deltaPos reading the delta table) and emits head rows.
func (ns *NaiveSolver) applyRuleDelta(rule *Rule, deltaPos int, delta *tupleTable, emit func([]uint64)) error {
	ns.stats.RuleApplications++
	lits := orderedLiterals(rule)
	headDecl := ns.prog.Relation(rule.Head.Pred)
	if emit == nil {
		headTable := ns.rels[rule.Head.Pred]
		emit = func(row []uint64) { headTable.add(row) }
	}

	env := make(map[string]uint64)
	var emitHead func(unboundIdx int) error
	var headUnbound []int // head arg positions whose variable is unbound
	emitHead = func(i int) error {
		if i == len(headUnbound) {
			row := make([]uint64, len(rule.Head.Args))
			for j, t := range rule.Head.Args {
				switch t.Kind {
				case TermVar:
					row[j] = env[t.Var]
				default:
					v, err := ns.resolveConst(t, headDecl.Attrs[j].Domain)
					if err != nil {
						return err
					}
					row[j] = v
				}
			}
			emit(row)
			return nil
		}
		pos := headUnbound[i]
		v := rule.Head.Args[pos].Var
		dom := headDecl.Attrs[pos].Domain
		for val := uint64(0); val < ns.sizes[dom]; val++ {
			env[v] = val
			if err := emitHead(i + 1); err != nil {
				return err
			}
		}
		delete(env, v)
		return nil
	}

	var walk func(li int) error
	walk = func(li int) error {
		if li == len(lits) {
			headUnbound = headUnbound[:0]
			for j, t := range rule.Head.Args {
				if t.Kind == TermVar {
					if _, ok := env[t.Var]; !ok {
						headUnbound = append(headUnbound, j)
					}
				}
			}
			return emitHead(0)
		}
		lit := lits[li]
		decl := ns.prog.Relation(lit.Atom.Pred)
		if lit.Negated {
			return ns.walkNegated(lit, decl, env, func() error { return walk(li + 1) })
		}
		table := ns.rels[lit.Atom.Pred]
		if li == deltaPos {
			table = delta
		}
		for _, row := range table.rows {
			var bound []string
			ok := true
			for j, t := range lit.Atom.Args {
				switch t.Kind {
				case TermWildcard:
				case TermConst, TermNamedConst:
					v, err := ns.resolveConst(t, decl.Attrs[j].Domain)
					if err != nil {
						return err
					}
					if row[j] != v {
						ok = false
					}
				case TermVar:
					if cur, isBound := env[t.Var]; isBound {
						if cur != row[j] {
							ok = false
						}
					} else {
						env[t.Var] = row[j]
						bound = append(bound, t.Var)
					}
				}
				if !ok {
					break
				}
			}
			if ok {
				if err := walk(li + 1); err != nil {
					return err
				}
			}
			for _, v := range bound {
				delete(env, v)
			}
		}
		return nil
	}
	return walk(0)
}

// walkNegated handles a negated literal: bound variables form a pattern
// that must be absent; unbound variables range over their full domains
// (finite-universe complement semantics, matching the BDD solver).
func (ns *NaiveSolver) walkNegated(lit Literal, decl *RelationDecl, env map[string]uint64, cont func() error) error {
	var unbound []int
	for j, t := range lit.Atom.Args {
		if t.Kind == TermVar {
			if _, ok := env[t.Var]; !ok {
				// A variable may repeat inside the atom; only the first
				// unbound occurrence enumerates.
				dup := false
				for _, u := range unbound {
					if lit.Atom.Args[u].Var == t.Var {
						dup = true
						break
					}
				}
				if !dup {
					unbound = append(unbound, j)
				}
			}
		}
	}
	table := ns.rels[lit.Atom.Pred]
	var rec func(i int) error
	rec = func(i int) error {
		if i == len(unbound) {
			row := make([]uint64, len(lit.Atom.Args))
			for j, t := range lit.Atom.Args {
				switch t.Kind {
				case TermVar:
					row[j] = env[t.Var]
				case TermConst, TermNamedConst:
					v, err := ns.resolveConst(t, decl.Attrs[j].Domain)
					if err != nil {
						return err
					}
					row[j] = v
				default:
					return fmt.Errorf("line %d: don't-care in negated literal", lit.Atom.Line)
				}
			}
			if table.has(row) {
				return nil
			}
			return cont()
		}
		pos := unbound[i]
		v := lit.Atom.Args[pos].Var
		dom := decl.Attrs[pos].Domain
		for val := uint64(0); val < ns.sizes[dom]; val++ {
			env[v] = val
			if err := rec(i + 1); err != nil {
				return err
			}
		}
		delete(env, v)
		return nil
	}
	return rec(0)
}
