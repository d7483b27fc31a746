package datalog

import (
	"fmt"
	"slices"
	"time"

	"bddbddb/internal/datalog/plan"
	"bddbddb/internal/rel"
)

// execPlan interprets one plan variant: literal pipelines feed
// JoinProject steps in the plan's join order, then the head ops build
// the result in the head relation's schema. The caller owns the
// result. delta is the relation the variant's delta literal reads
// (nil for the base variant).
//
// Ownership: evalLit may return a borrowed relation — the stored
// source itself (trivial pipeline) or a cached normalized form
// (hoisting) — flagged owned=false; borrowed relations are never
// freed here, and a still-borrowed final accumulator is cloned (a
// reference bump) so the caller's Free stays safe.
func (s *Solver) execPlan(cr *compiledRule, p *plan.Plan, delta *rel.Relation) *rel.Relation {
	// One coarse cancellation/budget check per rule application; the
	// fine-grained strided polls live inside the BDD recursions.
	s.opts.Control.Check()
	ro := s.ruleObs[cr.rule]
	start := time.Now()
	if s.tr != nil {
		s.tr.Begin(ro.span)
	}
	defer func() {
		d := time.Since(start)
		ro.timer.Observe(d)
		if s.hRuleApply != nil {
			s.hRuleApply.Observe(d.Seconds())
		}
		if s.tr != nil {
			s.tr.End()
		}
	}()
	s.cApps.Inc()

	var acc *rel.Relation
	accOwned := false
	for k, idx := range p.Order {
		cur, curOwned := s.evalLit(cr, p, idx, delta)
		jp := p.Joins[k]
		opStart := s.beginOp(jp)
		if acc == nil {
			if len(jp.Drop) > 0 {
				next := cur.ProjectOut("acc", jp.Drop...)
				if curOwned {
					cur.Free()
				}
				acc, accOwned = next, true
			} else {
				acc, accOwned = cur, curOwned
			}
		} else {
			next := acc.JoinProject("acc", cur, jp.Drop...)
			if accOwned {
				acc.Free()
			}
			if curOwned {
				cur.Free()
			}
			acc, accOwned = next, true
		}
		s.endOp(opStart)
		if acc.IsEmpty() {
			// Everything downstream is a join; empty stays empty.
			if accOwned {
				acc.Free()
			}
			return s.u.NewRelation("res:"+p.Head, p.HeadSchema...)
		}
	}
	for _, o := range p.HeadOps {
		opStart := s.beginOp(o)
		var next *rel.Relation
		switch o := o.(type) {
		case *plan.BindFull:
			next = acc.Join("acc", cr.full[o.Attr.Name])
		case *plan.Reshape:
			next = acc.Reshape("acc", o.Spec)
		case *plan.DupHead:
			next = acc.Join("acc", cr.dups[o.NewAttr.Name])
		case *plan.ConstHead:
			next = acc.Join("acc", cr.singles[o.Attr.Name])
		default:
			panic(fmt.Sprintf("datalog: unexpected head op %T in %s", o, cr.rule))
		}
		s.endOp(opStart)
		if accOwned {
			acc.Free()
		}
		acc, accOwned = next, true
	}
	if !accOwned {
		acc = acc.Clone("res:" + p.Head)
	}
	return acc
}

// evalLit produces the normalized relation for the literal at
// canonical position idx. The second result reports ownership: false
// means the relation is borrowed (the stored source or a cache entry)
// and must not be freed by the caller.
//
// Non-delta literals with real normalization work are hoisted: the
// result is cached per compiled rule and revalidated by the source
// relation's (pointer, modification stamp) pair — see litCache. Within
// a stratum the sources of non-recursive literals never change, so the
// fixpoint loop pays for normalization once instead of every
// iteration.
func (s *Solver) evalLit(cr *compiledRule, p *plan.Plan, idx int, delta *rel.Relation) (*rel.Relation, bool) {
	l := &p.Lits[idx]
	src := s.rels[l.Pred]
	if l.Delta() {
		src = delta
	}
	s.countOp(l.Ops[0])
	if l.Trivial() {
		// No normalization needed: reference the source without copying.
		return src, false
	}
	if l.Delta() {
		return s.normalize(cr, l, idx, src), true
	}
	c := cr.cache[idx]
	if c.norm != nil && c.src == src && c.stamp == src.Stamp() {
		s.cHoistHits.Inc()
		return c.norm, false
	}
	s.cHoistMisses.Inc()
	norm := s.normalize(cr, l, idx, src)
	c.clear(s.u.M)
	c.src = src
	c.stamp = src.Stamp()
	c.norm = norm
	c.lit = l
	return norm, false
}

// growHead unions fresh into head, a relation the running stratum
// defines, and reports whether head grew. Every hoisted normalization
// among rules' caches that read head and was current just before the
// union stays current: its pipeline distributes over union, so
// norm ∪= pipeline(fresh) equals the pipeline over the grown head, and
// the entry takes head's new stamp. A self-join such as
// hP :- store, vPC(c,v1,h1), vPC(c,v2,h2) thus renames only each
// iteration's new vPC tuples instead of all of vPC. Entries with a
// Complement are left stale for the next read to recompute.
func (s *Solver) growHead(rules []*compiledRule, head, fresh *rel.Relation) bool {
	before := head.Stamp()
	if !head.UnionWith(fresh) {
		return false
	}
	for _, cr := range rules {
		for _, c := range cr.cache {
			if c.norm == nil || c.src != head || c.stamp != before || !c.lit.Distributive() {
				continue
			}
			grown := s.runPipeline(c.lit, fresh, nil)
			c.norm.UnionWith(grown)
			grown.Free()
			c.stamp = head.Stamp()
		}
	}
	if s.afterGrow != nil {
		s.afterGrow(rules)
	}
	return true
}

// normalize runs the pipeline of the literal at canonical position
// idx over src. A query literal that reads a base relation with `_`
// attributes starts instead from the query base's memo of that
// relation with those attributes projected out. The pipeline's
// selections and equalities touch only the other attributes, so they
// commute with that projection and the result is the same relation.
// A pivoted entry already holds some attributes on the instances the
// pipeline's Reshape moves them to, so that move costs nothing.
func (s *Solver) normalize(cr *compiledRule, l *plan.Lit, idx int, src *rel.Relation) *rel.Relation {
	ms := cr.memo[idx]
	if s.base == nil || len(ms.wild) == 0 || !s.queryBase[l.Pred] {
		return s.runPipeline(l, src, nil)
	}
	return s.runPipeline(l, s.base.projected(s, src, ms), ms.wild)
}

// runPipeline applies a literal's normalization ops (everything after
// the Load) to src, which it borrows. gone names attributes src has
// already lost; the Project op drops only the rest, and vanishes when
// none remain. The caller owns the result.
func (s *Solver) runPipeline(l *plan.Lit, src *rel.Relation, gone []string) *rel.Relation {
	name := "lit:" + l.Pred
	cur, owned := src, false
	for _, o := range l.Ops[1:] {
		if p, ok := o.(*plan.Project); ok && len(gone) > 0 {
			drop := slices.DeleteFunc(slices.Clone(p.Drop), func(a string) bool { return slices.Contains(gone, a) })
			if len(drop) == 0 {
				continue
			}
			o = &plan.Project{Drop: drop, Out: p.Out}
		}
		opStart := s.beginOp(o)
		var next *rel.Relation
		switch o := o.(type) {
		case *plan.SelectConst:
			next = cur.SelectEq(name, o.Attr, o.Val)
		case *plan.EquateAttrs:
			next = cur.SelectEqualAttrs(name, o.A, o.B)
		case *plan.Project:
			next = cur.ProjectOut(name, o.Drop...)
		case *plan.Reshape:
			next = cur.Reshape(name, o.Spec)
		case *plan.Complement:
			next = cur.Complement("¬" + l.Pred)
		default:
			panic(fmt.Sprintf("datalog: unexpected literal op %T for %s", o, l.Pred))
		}
		s.endOp(opStart)
		if owned {
			cur.Free()
		}
		cur, owned = next, true
	}
	if !owned {
		cur = cur.Clone(name)
	}
	return cur
}

// countOp bumps the op's datalog.op.* counter.
func (s *Solver) countOp(o plan.Op) {
	if c := s.opCounters[o.Kind()]; c != nil {
		c.Inc()
	}
}

// beginOp counts o, opens its "op.<kind>" span and returns the
// produced-node count endOp measures o's result size from.
func (s *Solver) beginOp(o plan.Op) int64 {
	s.countOp(o)
	if s.tr != nil {
		s.tr.Begin("op." + o.Kind())
	}
	return s.u.M.ProducedNodes()
}

// endOp records the nodes produced since beginOp returned opStart
// (datalog.op.result_nodes) and closes the op's span.
func (s *Solver) endOp(opStart int64) {
	if s.hOpNodes != nil {
		s.hOpNodes.Observe(float64(s.u.M.ProducedNodes() - opStart))
	}
	if s.tr != nil {
		s.tr.End()
	}
}
