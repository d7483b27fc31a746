package datalog

import (
	"fmt"
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
	// textual, then negatives) with identity join order — it reproduces
	// the historical executor and is the "before" side of -explain.
	naive *plan.Plan
	// plans holds the variants solveStratum plans against live
	// cardinalities: key -1 is the base (no delta) variant, key i the
	// semi-naive variant reading the delta at canonical position i.
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
	// wild lists, per canonical literal position, the attributes the
	// literal reads as `_`, sorted: a query literal over a base
	// relation starts from the base's memo of that relation with these
	// attributes projected out (see QueryBase.projected).
	wild [][]string
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

// releaseHelpers frees every BDD reference the compiled rule owns: the
// hoisted literal caches plus the iteration-invariant helper relations
// (FullDomain/Singleton/Equals). Long-lived solvers never need this —
// their rules live as long as the manager — but query-mode evaluation
// compiles fresh rules per request against a shared replica manager,
// and leaking a few helper nodes per query would pin the node table
// forever. Idempotent.
func (cr *compiledRule) releaseHelpers(m *bdd.Manager) {
	cr.clearCaches(m)
	for _, r := range cr.full {
		r.Free()
	}
	for _, r := range cr.singles {
		r.Free()
	}
	for _, r := range cr.dups {
		r.Free()
	}
	cr.full, cr.singles, cr.dups = nil, nil, nil
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
	for _, l := range rule.Body {
		if !l.Negated {
			out = append(out, l)
		}
	}
	for _, l := range rule.Body {
		if l.Negated {
			out = append(out, l)
		}
	}
	return out
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
// iteration-invariant helpers. Must run after Finalize and relation
// materialization (it captures physical domains and live schemas).
func (s *Solver) compileRule(rule *Rule, asn map[string]int) (*compiledRule, error) {
	prog := s.prog
	cr := &compiledRule{
		rule:    rule,
		plans:   make(map[int]*plan.Plan),
		full:    make(map[string]*rel.Relation),
		singles: make(map[string]*rel.Relation),
		dups:    make(map[string]*rel.Relation),
	}
	instPhys := func(v string) *bdd.Domain {
		// Every rule variable has a domain (checked in parsing) and an
		// assigned instance.
		dom := varDomainOf(prog, rule, v)
		return s.u.Phys(dom, asn[v])
	}

	p := &plan.Plan{Rule: rule.String(), Head: rule.Head.Pred, DeltaPos: -1}

	// Body literals: lower each to its normalization pipeline. The
	// lowering keeps identity Reshape entries on purpose — the pinned
	// legacy configuration must reproduce the historical executor,
	// which applied them; Optimize prunes them as dead ops.
	lits := orderedLiterals(rule)
	for _, lit := range lits {
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
				v, err := s.resolveConst(t, decl.Attrs[i].Domain)
				if err != nil {
					return nil, check.Errorf(check.CodeConstRange, s.prog.File, t.Line, t.Col, "%v", err)
				}
				ops = append(ops, &plan.SelectConst{Attr: attr, Val: v, Out: schema})
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
		cr.wild = append(cr.wild, wild)
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
	headDecl := prog.Relation(rule.Head.Pred)
	p.HeadSchema = append([]rel.Attr(nil), s.rels[rule.Head.Pred].Attrs()...)
	firstPos := make(map[string]int)
	headMoves := make(map[string]rel.Remap)
	var bindOps, dupOps, constOps []plan.Op
	for i, t := range rule.Head.Args {
		target := p.HeadSchema[i]
		switch t.Kind {
		case TermConst, TermNamedConst:
			v, err := s.resolveConst(t, headDecl.Attrs[i].Domain)
			if err != nil {
				return nil, check.Errorf(check.CodeConstRange, s.prog.File, t.Line, t.Col, "%v", err)
			}
			constOps = append(constOps, &plan.ConstHead{Attr: target, Val: v})
			cr.singles[target.Name] = s.u.Singleton("const:"+target.Name, target, v)
		case TermVar:
			if fp, dup := firstPos[t.Var]; dup {
				first := p.HeadSchema[fp]
				dupOps = append(dupOps, &plan.DupHead{JoinAttr: first, NewAttr: target})
				eq, err := s.u.M.Equals(first.Phys, target.Phys)
				if err != nil {
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
	cr.cache = make([]*litCache, len(p.Lits))
	for i := range cr.cache {
		cr.cache[i] = &litCache{}
	}
	return cr, nil
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
