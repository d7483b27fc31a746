package callgraph

import (
	"cmp"
	"math"
	"math/big"
	"slices"

	"bddbddb/internal/bdd"
	"bddbddb/internal/rel"
)

// This file materializes Algorithm 4's output into BDD relations using
// the O(k) range and add-constant primitives of Section 4.1:
//
//   IEC(caller:C, invoke:I, callee:C, method:M)
//   vC(context:C, variable:V) — the contexts of each variable's method,
//     which seed rules (14) and (20) the way the paper's pacsh.datalog
//     joins mV and mC (see DESIGN.md).
//
// The context domain's top value serves as the merged overflow context:
// components with more contexts than the domain holds have their tail
// collapsed onto it, exactly as the paper merges contexts beyond 2^63.

// mergeValue returns the context value that absorbs overflow.
func mergeValue(c *bdd.Domain) uint64 { return c.Size - 1 }

// Every materializer below builds its relation as parts keyed by the
// context structure the rows share — a capped context count, an
// add-constant offset, a cloned flag — so each context BDD is built once
// per key rather than once per method or edge. A part is that context
// BDD conjoined with its rows, loaded bottom-up by one TupleSet, and the
// parts are ORed in a balanced pairwise tree (unionParts). Folding them
// into one growing root instead would re-walk the accumulated context
// structure at every step — quadratic work whose garbage the solve then
// carries to its first collection.

// allContexts is the partKey count of elements with no method (the
// global variable and object), which occur in every context
// (Domain.DomainConstraint, value 0 included) rather than a range 1..k.
// It sorts after every real capped count.
const allContexts = math.MaxUint64

// partKey identifies one part: count is the capped context count (or
// allContexts) and arg the key's second component — the capped
// add-constant offset for IEC, 1 for a cloned heap-context part, 0
// otherwise.
type partKey struct{ count, arg uint64 }

// partition buckets a relation's rows by partKey.
type partition struct {
	keys []partKey
	rows map[partKey][][]uint64
}

func (p *partition) add(k partKey, row ...uint64) {
	if p.rows == nil {
		p.rows = make(map[partKey][][]uint64)
	}
	if p.rows[k] == nil {
		p.keys = append(p.keys, k)
	}
	p.rows[k] = append(p.rows[k], row)
}

// union builds ctx(key) ∧ TupleSet(doms, rows) for every key, in
// ascending key order so node numbering repeats from run to run, and
// returns the balanced union of the parts. ctx returns a referenced
// node. The result is referenced.
func (p *partition) union(m *bdd.Manager, doms []*bdd.Domain, ctx func(partKey) (bdd.Node, error)) (bdd.Node, error) {
	slices.SortFunc(p.keys, func(a, b partKey) int {
		return cmp.Or(cmp.Compare(a.count, b.count), cmp.Compare(a.arg, b.arg))
	})
	parts := make([]bdd.Node, 0, len(p.keys))
	for _, k := range p.keys {
		c, err := ctx(k)
		if err != nil {
			for _, nd := range parts {
				m.Deref(nd)
			}
			return bdd.False, err
		}
		rows := m.TupleSet(doms, p.rows[k])
		parts = append(parts, m.And(c, rows))
		m.Deref(c)
		m.Deref(rows)
	}
	return unionParts(m, parts), nil
}

// unionParts ORs referenced parts in a balanced pairwise tree, so every
// OR joins two operands of similar size, and releases them. The result
// is referenced.
func unionParts(m *bdd.Manager, parts []bdd.Node) bdd.Node {
	if len(parts) == 0 {
		return m.Ref(bdd.False)
	}
	for len(parts) > 1 {
		next := parts[:0]
		for i := 0; i+1 < len(parts); i += 2 {
			or := m.Or(parts[i], parts[i+1])
			m.Deref(parts[i])
			m.Deref(parts[i+1])
			next = append(next, or)
		}
		if len(parts)%2 == 1 {
			next = append(next, parts[len(parts)-1])
		}
		parts = next
	}
	return parts[0]
}

// contextRange returns the contexts a part's count executes in: 1..k,
// or the whole domain for allContexts. Referenced.
func contextRange(d *bdd.Domain, count uint64) bdd.Node {
	if count == allContexts {
		return d.DomainConstraint()
	}
	return d.Range(1, count)
}

// MaterializeIEC builds the context-sensitive invocation edge relation.
// The four attributes supply the schema (and physical placement); the
// two context attributes must use interleaved physical domains.
//
// An edge's (caller, callee) context pairs depend only on its capped
// caller count k and its offset, capped at the merge value: an edge
// inside an SCC is offset 0, and every offset at or past the merge
// point maps all k caller contexts onto the merged context.
func (n *Numbering) MaterializeIEC(u *rel.Universe, name string, caller, invoke, callee, method rel.Attr) (*rel.Relation, error) {
	capM := mergeValue(caller.Phys)
	var p partition
	for ei, e := range n.G.Edges {
		em := n.EdgeMaps[ei]
		if em.CallerCount == nil || em.CallerCount.Sign() == 0 {
			continue // caller has no contexts (should not happen)
		}
		off := uint64(0)
		if !em.SameSCC {
			off = CappedCount(em.Offset, capM)
		}
		p.add(partKey{CappedCount(em.CallerCount, capM), off}, uint64(e.Invoke), uint64(e.Callee))
	}
	root, err := p.union(u.M, []*bdd.Domain{invoke.Phys, method.Phys}, func(k partKey) (bdd.Node, error) {
		return edgeContextBDD(u.M, caller.Phys, callee.Phys, k.count, k.arg, capM)
	})
	if err != nil {
		return nil, err
	}
	return u.NewRelationFromBDD(name, root, caller, invoke, callee, method), nil
}

// edgeContextBDD builds the (caller context, callee context) relation of
// an edge with capped caller count k and capped offset off: caller x in
// [1, k] maps to x+off while that does not pass the merge value capM, and
// to capM beyond. Returned node is referenced.
func edgeContextBDD(m *bdd.Manager, ccPhys, cmPhys *bdd.Domain, k, off, capM uint64) (bdd.Node, error) {
	hiDistinct := uint64(0)
	if off < capM {
		hiDistinct = min(capM-off, k)
	}
	distinct, err := m.AddConst(ccPhys, cmPhys, off, 1, hiDistinct)
	if err != nil || hiDistinct == k {
		return distinct, err
	}
	merged := mergedPart(m, ccPhys, cmPhys, hiDistinct+1, k, capM)
	res := m.Or(distinct, merged)
	m.Deref(distinct)
	m.Deref(merged)
	return res, nil
}

// mergedPart builds callerRange(lo..hi) × {merged}. Referenced.
func mergedPart(m *bdd.Manager, ccPhys, cmPhys *bdd.Domain, lo, hi, capM uint64) bdd.Node {
	rng := ccPhys.Range(lo, hi)
	tgt := cmPhys.Eq(capM)
	res := m.And(rng, tgt)
	m.Deref(rng)
	m.Deref(tgt)
	return res
}

// methodCount returns the partKey count of an element of method meth
// (< 0 for no method: the global variable and object, and spare domain
// values), or 0 when the method is unreachable and so executes in no
// context.
func (n *Numbering) methodCount(meth int, capM uint64) uint64 {
	if meth < 0 {
		// Global elements live in every context (Algorithm 7: "All
		// global objects across all contexts are given the same
		// context"; for call-path contexts they must join with any).
		return allContexts
	}
	return CappedCount(n.MethodContexts(meth), capM)
}

// MaterializeContexts builds a (context, element) relation: element e
// occurs in context c of its method. elemMethod maps element indices to
// M indices; entries < 0 occur in every context.
func (n *Numbering) MaterializeContexts(u *rel.Universe, name string, context, elem rel.Attr, elemMethod []int) *rel.Relation {
	capM := mergeValue(context.Phys)
	var p partition
	for e, meth := range elemMethod {
		if k := n.methodCount(meth, capM); k != 0 {
			p.add(partKey{count: k}, uint64(e))
		}
	}
	// The context ranges cannot fail, so neither can the union.
	root, _ := p.union(u.M, []*bdd.Domain{elem.Phys}, func(k partKey) (bdd.Node, error) {
		return contextRange(context.Phys, k.count), nil
	})
	return u.NewRelationFromBDD(name, root, context, elem)
}

// MaterializeHeapContexts builds Algorithm 8's (context, hctx, element)
// diagonal: an element of a method executing in context c pairs with
// heap clone hctx = c — one AddConst per capped context count, O(k) in
// BDD nodes, which requires context and hctx to share an interleaved
// order block ("C+HC"). Heap-context value 0 is the "no heap context"
// clone: elements flagged in noHeapContext (and elements with no
// method, which occur in every context) pair with hctx = 0, keeping
// them context-insensitive exactly like Algorithm 5.
func (n *Numbering) MaterializeHeapContexts(u *rel.Universe, name string, context, hctx, elem rel.Attr, elemMethod []int, noHeapContext []bool) (*rel.Relation, error) {
	m := u.M
	capM := mergeValue(context.Phys)
	var p partition
	for e, meth := range elemMethod {
		k := n.methodCount(meth, capM)
		if k == 0 {
			continue
		}
		cloned := uint64(0)
		if meth >= 0 && !(e < len(noHeapContext) && noHeapContext[e]) {
			cloned = 1
		}
		p.add(partKey{k, cloned}, uint64(e))
	}
	root, err := p.union(m, []*bdd.Domain{elem.Phys}, func(k partKey) (bdd.Node, error) {
		if k.arg == 1 {
			return m.AddConst(context.Phys, hctx.Phys, 0, 1, k.count)
		}
		rng := contextRange(context.Phys, k.count)
		zero := hctx.Phys.Eq(0)
		pairs := m.And(rng, zero)
		m.Deref(rng)
		m.Deref(zero)
		return pairs, nil
	})
	if err != nil {
		return nil, err
	}
	return u.NewRelationFromBDD(name, root, context, hctx, elem), nil
}

// ContextDomainSize returns a context-domain size that distinctly
// represents every context up to limit and reserves a merge slot:
// min(MaxContexts+1, limit).
func (n *Numbering) ContextDomainSize(limit uint64) uint64 {
	need := new(big.Int).Add(n.MaxContexts, big.NewInt(1))
	if need.IsUint64() && need.Uint64() < limit {
		s := need.Uint64()
		if s < 2 {
			s = 2
		}
		return s
	}
	return limit
}
