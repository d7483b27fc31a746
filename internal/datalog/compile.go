package datalog

import (
	"fmt"
	"slices"
	"sort"

	"bddbddb/internal/bdd"
	"bddbddb/internal/datalog/check"
	"bddbddb/internal/datalog/plan"
	"bddbddb/internal/rel"
)

// compiledRule is the executable form of one rule: the canonical
// lowered plan, the per-stratum optimized variants, the
// iteration-invariant helper relations the head ops join with, and the
// per-literal normalization cache the interpreter hoists work into.
type compiledRule struct {
	rule *Rule
	// naive is the lowered plan in canonical literal order (positives
	// textual, then negatives) with identity join order — the "before"
	// side of -explain and the input every variant is optimized from.
	naive *plan.Plan
	// plans holds the variants withStratum plans against live
	// cardinalities: key -1 is the base (no delta) variant, key i the
	// semi-naive variant reading the delta at canonical position i. On
	// an unbound rule (compileRule's) it keeps the variants whose
	// planning read no cardinality, with their constants unset, for
	// every binding of the rule (see optimize).
	plans map[int]*plan.Plan
	// full, singles, and dups cache the helper relations head ops join
	// with (FullDomain per unbound variable, Singleton per constant
	// head attribute, Equals per duplicated head attribute) — they only
	// depend on the rule, so they are built once here instead of on
	// every application. Keyed by the op's distinguishing attribute
	// name, which survives plan rewrites.
	full    map[string]*rel.Relation
	singles map[string]*rel.Relation
	dups    map[string]*rel.Relation
	// cache hoists normalized non-delta literals out of the fixpoint
	// loop, indexed by canonical literal position (shared by all plan
	// variants, which never reorder Lits — only Order).
	cache []*litCache
	// memo says, per canonical literal position, which entry of the
	// query base's memo a query literal over a base relation starts
	// from (see QueryBase.projected).
	memo []memoSpec
	// consts lists the rule's constants in the order their values are
	// resolved (bindRule). compileRule leaves every SelectConst and
	// ConstHead value 0 and builds no singles; bindRule fills them in.
	consts []constRef
	// unbound is the rule compileRule built, which bindRule bound into
	// this one with the values vals (parallel to consts); nil on an
	// unbound rule.
	unbound *compiledRule
	vals    []uint64
}

// constRef is one constant argument of a rule: the attribute it selects
// on (in the literal at canonical position lit) or binds (in the head,
// lit -1), its domain, and its index among the rule's constants in
// textual order (ruleConsts), which is where its term comes from.
type constRef struct {
	arg  int
	lit  int
	attr rel.Attr
}

// memoSpec names a literal's memo entry: wild lists the attributes the
// literal reads as `_`, sorted, which the entry projects out; pivot is
// what QueryBase.pivotInstances chose for the literal: it maps each
// attribute moved to a headroom instance (an instance past the
// replica's primary ones, in the trailing blocks below every main
// block) to that instance, where the entry holds it. A nil pivot is
// the entry on the base relation's own instances.
type memoSpec struct {
	wild  []string
	pivot map[string]*bdd.Domain
}

// litCache holds one literal's hoisted normalized form, validated by
// (source relation pointer, modification stamp). Stamps come from the
// universe's monotone counter: the held pointer keeps the Go object
// alive (so its address cannot be recycled) and every content mutation
// bumps the stamp, so an equal pair later proves the source is
// unchanged. When the source grows inside its stratum,
// growHead keeps a current entry current by uniting in the pipeline
// over the growth, instead of leaving it to be recomputed in full.
type litCache struct {
	src   *rel.Relation
	stamp uint64
	norm  *rel.Relation
	lit   *plan.Lit // the pipeline that produced norm
}

// clear drops the cached form.
func (c *litCache) clear(m *bdd.Manager) {
	if c.norm == nil {
		return
	}
	c.norm.Free()
	c.norm = nil
	c.src = nil
	c.stamp = 0
	c.lit = nil
}

// clearCaches drops every hoisted normalization the rule holds.
func (cr *compiledRule) clearCaches(m *bdd.Manager) {
	for _, c := range cr.cache {
		c.clear(m)
	}
}

// releaseBinding frees the BDD references a bound rule owns: the
// hoisted literal caches and the constant singletons. Long-lived
// solvers never need this — their rules live as long as the manager —
// but query-mode evaluation binds rules per request against a shared
// replica manager, and leaking a few helper nodes per query would pin
// the node table forever. Idempotent.
func (cr *compiledRule) releaseBinding(m *bdd.Manager) {
	cr.clearCaches(m)
	for _, r := range cr.singles {
		r.Free()
	}
	cr.singles = nil
}

// releaseHelpers frees the constant-free helpers compileRule built
// (FullDomain and Equals relations), which every binding of the rule
// shares: a prepared query shape releases them when it is dropped.
// Idempotent.
func (cr *compiledRule) releaseHelpers() {
	for _, r := range cr.full {
		r.Free()
	}
	for _, r := range cr.dups {
		r.Free()
	}
	cr.full, cr.dups = nil, nil
}

// recursivePositions lists the canonical body positions that read
// predicates of the given stratum (candidates for the semi-naive
// delta).
func (cr *compiledRule) recursivePositions(inStratum map[string]bool) []int {
	var out []int
	for i := range cr.naive.Lits {
		l := &cr.naive.Lits[i]
		if !l.Negated && inStratum[l.Pred] {
			out = append(out, i)
		}
	}
	return out
}

// naturalInstance returns the physical-instance index the i-th attribute
// of a declaration occupies: the count of earlier same-domain attributes.
func naturalInstance(decl *RelationDecl, i int) int {
	n := 0
	for j := 0; j < i; j++ {
		if decl.Attrs[j].Domain == decl.Attrs[i].Domain {
			n++
		}
	}
	return n
}

// orderedLiterals returns the rule's body in canonical order: positive
// literals first (textual order), then negated ones. Plan literal
// indices — delta positions, cache slots — are relative to this order.
func orderedLiterals(rule *Rule) []Literal {
	var out []Literal
	for _, j := range canonicalOrder(rule) {
		out = append(out, rule.Body[j])
	}
	return out
}

// canonicalOrder lists the body indices of rule's literals in canonical
// order (see orderedLiterals).
func canonicalOrder(rule *Rule) []int {
	var out []int
	for _, neg := range []bool{false, true} {
		for j, l := range rule.Body {
			if l.Negated == neg {
				out = append(out, j)
			}
		}
	}
	return out
}

// ruleConsts lists rule's constant arguments in textual order: the
// head's, then each body literal's. A query's constants arrive in this
// order, from its tokens (see QueryBase.Eval).
func ruleConsts(rule *Rule) []Term {
	var out []Term
	eachConst(rule, func(_, i int, a Atom) { out = append(out, a.Args[i]) })
	return out
}

// eachConst calls f for each constant argument of rule, in textual
// order, with its atom a, the atom's position lit (-1 for the head,
// else its index in rule.Body) and the argument's index i.
func eachConst(rule *Rule, f func(lit, i int, a Atom)) {
	visit := func(lit int, a Atom) {
		for i, t := range a.Args {
			if t.Kind == TermConst || t.Kind == TermNamedConst {
				f(lit, i, a)
			}
		}
	}
	visit(-1, rule.Head)
	for j, l := range rule.Body {
		visit(j, l.Atom)
	}
}

// assignInstances chooses a physical instance for each rule variable.
// Variables prefer the natural instance of the first attribute position
// they appear at, falling back to the lowest free instance of their
// domain. Returns the assignment and the per-domain instance demand.
func assignInstances(prog *Program, rule *Rule) (map[string]int, map[string]int) {
	asn := make(map[string]int)
	used := make(map[string]map[int]bool)
	need := make(map[string]int)
	assign := func(v, dom string, pref int) {
		if _, done := asn[v]; done {
			return
		}
		if used[dom] == nil {
			used[dom] = make(map[int]bool)
		}
		inst := pref
		if used[dom][inst] {
			inst = 0
			for used[dom][inst] {
				inst++
			}
		}
		asn[v] = inst
		used[dom][inst] = true
		if inst+1 > need[dom] {
			need[dom] = inst + 1
		}
	}
	visit := func(a Atom) {
		decl := prog.Relation(a.Pred)
		for i, t := range a.Args {
			if t.Kind == TermVar {
				assign(t.Var, decl.Attrs[i].Domain, naturalInstance(decl, i))
			}
		}
	}
	for _, lit := range orderedLiterals(rule) {
		visit(lit.Atom)
	}
	visit(rule.Head)
	return asn, need
}

// compileRule lowers a rule to its canonical plan and builds the
// constant-free iteration-invariant helpers; bindRule then supplies the
// constants. Must run after Finalize and relation materialization (it
// captures physical domains and live schemas). pivots, indexed by
// canonical literal position, is what QueryBase.pivotInstances chose
// for a query rule; nil elsewhere. Nothing here reads a constant's
// value, so one compiled rule serves every query of a shape.
func (s *Solver) compileRule(rule *Rule, asn map[string]int, pivots []map[string]*bdd.Domain) (*compiledRule, error) {
	prog := s.prog
	cr := &compiledRule{
		rule:  rule,
		plans: make(map[int]*plan.Plan),
		full:  make(map[string]*rel.Relation),
		dups:  make(map[string]*rel.Relation),
	}
	instPhys := func(v string) *bdd.Domain {
		// Every rule variable has a domain (checked in parsing) and an
		// assigned instance.
		dom := varDomainOf(prog, rule, v)
		return s.u.Phys(dom, asn[v])
	}

	p := &plan.Plan{Rule: rule.String(), Head: rule.Head.Pred, DeltaPos: -1}

	// Each constant's number in textual order, by (atom, argument).
	constArg := make(map[[2]int]int)
	eachConst(rule, func(lit, i int, _ Atom) { constArg[[2]int{lit, i}] = len(constArg) })

	// Body literals: lower each to its normalization pipeline. The
	// lowering emits a Reshape entry for every attribute, identity moves
	// included; Optimize prunes those as dead ops.
	lits := orderedLiterals(rule)
	for li, j := range canonicalOrder(rule) {
		lit := rule.Body[j]
		decl := prog.Relation(lit.Atom.Pred)
		schema := append([]rel.Attr(nil), s.rels[lit.Atom.Pred].Attrs()...)
		ops := []plan.Op{&plan.Load{Pred: lit.Atom.Pred, Out: schema}}
		var drops []string
		reshape := make(map[string]rel.Remap)
		firstAttr := make(map[string]string) // var -> attr of first occurrence in this atom
		var wild []string
		for i, t := range lit.Atom.Args {
			attr := decl.Attrs[i].Name
			switch t.Kind {
			case TermConst, TermNamedConst:
				cr.consts = append(cr.consts, constRef{arg: constArg[[2]int{j, i}], lit: li, attr: schema[i]})
				ops = append(ops, &plan.SelectConst{Attr: attr, Out: schema})
				drops = append(drops, attr)
			case TermWildcard:
				drops = append(drops, attr)
				wild = append(wild, attr)
			case TermVar:
				if fa, dup := firstAttr[t.Var]; dup {
					ops = append(ops, &plan.EquateAttrs{A: fa, B: attr, Out: schema})
					drops = append(drops, attr)
					continue
				}
				firstAttr[t.Var] = attr
				reshape[attr] = rel.Remap{NewName: t.Var, NewPhys: instPhys(t.Var)}
			}
		}
		if len(drops) > 0 {
			schema = dropFromSchema(schema, drops)
			ops = append(ops, &plan.Project{Drop: drops, Out: schema})
		}
		if len(reshape) > 0 {
			schema = reshapeSchema(schema, reshape)
			ops = append(ops, &plan.Reshape{Spec: reshape, Out: schema})
		}
		if lit.Negated {
			ops = append(ops, &plan.Complement{Out: schema})
		}
		p.Lits = append(p.Lits, plan.Lit{Pred: lit.Atom.Pred, Negated: lit.Negated, Ops: ops})
		sort.Strings(wild)
		ms := memoSpec{wild: wild}
		if pivots != nil {
			ms.pivot = pivots[len(cr.memo)]
		}
		cr.memo = append(cr.memo, ms)
	}

	// The joins must preserve each head variable through to the end.
	bodyBinds := make(map[string]bool)
	for _, lit := range lits {
		for _, t := range lit.Atom.Args {
			if t.Kind == TermVar {
				bodyBinds[t.Var] = true
			}
		}
	}
	seenKeep := make(map[string]bool)
	for _, t := range rule.Head.Args {
		if t.Kind == TermVar && !seenKeep[t.Var] && bodyBinds[t.Var] {
			seenKeep[t.Var] = true
			p.Keep = append(p.Keep, t.Var)
		}
	}

	// Head construction: bind unconstrained variables to their full
	// domains, move first occurrences into the head schema, then equate
	// duplicates and bind constants.
	p.HeadSchema = append([]rel.Attr(nil), s.rels[rule.Head.Pred].Attrs()...)
	firstPos := make(map[string]int)
	headMoves := make(map[string]rel.Remap)
	var bindOps, dupOps, constOps []plan.Op
	for i, t := range rule.Head.Args {
		target := p.HeadSchema[i]
		switch t.Kind {
		case TermConst, TermNamedConst:
			cr.consts = append(cr.consts, constRef{arg: constArg[[2]int{-1, i}], lit: -1, attr: target})
			constOps = append(constOps, &plan.ConstHead{Attr: target})
		case TermVar:
			if fp, dup := firstPos[t.Var]; dup {
				first := p.HeadSchema[fp]
				dupOps = append(dupOps, &plan.DupHead{JoinAttr: first, NewAttr: target})
				eq, err := s.u.M.Equals(first.Phys, target.Phys)
				if err != nil {
					if s.base != nil {
						// A replica's headroom instances follow every
						// main block, so they interleave with no main
						// instance.
						return nil, rejectf("head variable %s repeats on instances %s and %s, which are not bitwise interleaved",
							t.Var, first.Phys.Name, target.Phys.Name)
					}
					return nil, fmt.Errorf("datalog: head duplicate in %s: %v", rule, err)
				}
				cr.dups[target.Name] = s.u.NewRelationFromBDD("dup:"+target.Name, eq, first, target)
				continue
			}
			firstPos[t.Var] = i
			headMoves[t.Var] = rel.Remap{NewName: target.Name, NewPhys: target.Phys}
			if !bodyBinds[t.Var] {
				a := rel.Attr{Name: t.Var, Dom: target.Dom, Phys: instPhys(t.Var)}
				bindOps = append(bindOps, &plan.BindFull{Attr: a})
				cr.full[t.Var] = s.u.FullDomain("full:"+t.Var, a)
			}
		}
	}
	p.HeadOps = append(p.HeadOps, bindOps...)
	if len(headMoves) > 0 {
		p.HeadOps = append(p.HeadOps, &plan.Reshape{Spec: headMoves})
	}
	p.HeadOps = append(p.HeadOps, dupOps...)
	p.HeadOps = append(p.HeadOps, constOps...)

	plan.Finish(p)
	cr.naive = p
	return cr, nil
}

// bindRule returns a copy of the compiled rule cr with its constants
// resolved from consts, the rule's constant terms in textual order
// (ruleConsts): its plan's SelectConst and ConstHead values, the
// singleton relations the ConstHead ops join with, and empty plan
// variants and hoisting caches of its own. The copy shares cr's
// constant-free helpers. The constants resolve in compile order, so
// the first unresolvable one is the one reported.
func (s *Solver) bindRule(cr *compiledRule, consts []Term) (*compiledRule, error) {
	b := *cr
	b.unbound = cr
	b.vals = make([]uint64, len(cr.consts))
	b.plans = nil // withStratum plans the variants
	b.singles = make(map[string]*rel.Relation)
	for k, c := range cr.consts {
		t := consts[c.arg]
		v, err := s.resolveConst(t, c.attr.Dom.Name)
		if err != nil {
			b.releaseBinding(s.u.M)
			return nil, check.Errorf(check.CodeConstRange, s.prog.File, t.Line, t.Col, "%v", err)
		}
		b.vals[k] = v
		if c.lit < 0 {
			b.singles[c.attr.Name] = s.u.Singleton("const:"+c.attr.Name, c.attr, v)
		}
	}
	b.naive = b.bind(cr.naive)
	b.cache = make([]*litCache, len(b.naive.Lits))
	for i := range b.cache {
		b.cache[i] = &litCache{}
	}
	return &b, nil
}

// bind returns a copy of p, the unbound rule's canonical plan or a
// variant of it, whose SelectConst and ConstHead ops carry the bound
// rule's values. Variants keep the canonical literal positions and
// every SelectConst, so each constant is found by its literal and
// attribute.
func (cr *compiledRule) bind(p *plan.Plan) *plan.Plan {
	if len(cr.consts) == 0 {
		return p // plans are never modified once built
	}
	q := *p
	q.Lits = slices.Clone(p.Lits)
	q.HeadOps = slices.Clone(p.HeadOps)
	for k, c := range cr.consts {
		ops := q.HeadOps
		if c.lit >= 0 {
			l := &q.Lits[c.lit]
			l.Ops = slices.Clone(l.Ops)
			ops = l.Ops
		}
		for i, o := range ops {
			switch o := o.(type) {
			case *plan.SelectConst:
				if o.Attr == c.attr.Name {
					bound := *o
					bound.Val = cr.vals[k]
					ops[i] = &bound
				}
			case *plan.ConstHead:
				if o.Attr.Name == c.attr.Name {
					bound := *o
					bound.Val = cr.vals[k]
					ops[i] = &bound
				}
			}
		}
	}
	return &q
}

// optimize returns the bound rule cr's plan variant reading the delta
// at canonical position pos (-1 for none), planned against card. A
// variant whose planning reads no cardinality (every literal joins one
// bound before it) depends on the rule alone: it is planned once, on
// the unbound rule, kept there and bound again for each binding, so a
// query of a prepared shape does not re-plan it.
func (cr *compiledRule) optimize(pos int, card func(pred string) float64) *plan.Plan {
	u := cr.unbound
	p := u.plans[pos]
	if p == nil {
		read := false
		p = u.naive
		if pos >= 0 {
			p = p.WithDelta(pos)
		}
		p = plan.Optimize(p, func(pred string) float64 {
			read = true
			return card(pred)
		})
		if !read {
			u.plans[pos] = p
		}
	}
	return cr.bind(p)
}

// dropFromSchema removes the named attributes (schema bookkeeping for
// lowering; mirrors Relation.ProjectOut).
func dropFromSchema(s []rel.Attr, drop []string) []rel.Attr {
	out := make([]rel.Attr, 0, len(s))
	for _, a := range s {
		dropped := false
		for _, d := range drop {
			if a.Name == d {
				dropped = true
				break
			}
		}
		if !dropped {
			out = append(out, a)
		}
	}
	return out
}

// reshapeSchema applies a Reshape spec to a schema (mirrors
// Relation.Reshape).
func reshapeSchema(s []rel.Attr, spec map[string]rel.Remap) []rel.Attr {
	out := append([]rel.Attr(nil), s...)
	for i := range out {
		mv, ok := spec[out[i].Name]
		if !ok {
			continue
		}
		if mv.NewPhys != nil {
			out[i].Phys = mv.NewPhys
		}
		if mv.NewName != "" {
			out[i].Name = mv.NewName
		}
	}
	return out
}

// varDomainOf returns the domain of a rule variable (established during
// parsing checks; any occurrence determines it).
func varDomainOf(prog *Program, rule *Rule, v string) string {
	scan := func(a Atom) string {
		decl := prog.Relation(a.Pred)
		for i, t := range a.Args {
			if t.Kind == TermVar && t.Var == v {
				return decl.Attrs[i].Domain
			}
		}
		return ""
	}
	for _, lit := range rule.Body {
		if d := scan(lit.Atom); d != "" {
			return d
		}
	}
	if d := scan(rule.Head); d != "" {
		return d
	}
	panic(fmt.Sprintf("datalog: variable %s not found in rule %s", v, rule))
}
