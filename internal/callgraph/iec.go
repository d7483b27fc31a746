package callgraph

import (
	"math/big"

	"bddbddb/internal/bdd"
	"bddbddb/internal/rel"
)

// This file materializes Algorithm 4's output into BDD relations using
// the O(k) range and add-constant primitives of Section 4.1:
//
//   IEC(caller:C, invoke:I, callee:C, method:M)
//   hC(context:C, heap:H) — which contexts execute each allocation site
//     (our well-typed stand-in for the paper's "H ⊆ I" trick in rules
//     (14) and (20); see DESIGN.md).
//
// The context domain's top value serves as the merged overflow context:
// components with more contexts than the domain holds have their tail
// collapsed onto it, exactly as the paper merges contexts beyond 2^63.

// mergeValue returns the context value that absorbs overflow.
func mergeValue(c *bdd.Domain) uint64 { return c.Size - 1 }

// MaterializeIEC builds the context-sensitive invocation edge relation.
// The four attributes supply the schema (and physical placement); the
// two context attributes must use interleaved physical domains.
func (n *Numbering) MaterializeIEC(u *rel.Universe, name string, caller, invoke, callee, method rel.Attr) (*rel.Relation, error) {
	m := u.M
	capM := mergeValue(caller.Phys)
	root := m.Ref(bdd.False)

	for ei, e := range n.G.Edges {
		em := n.EdgeMaps[ei]
		if em.CallerCount == nil || em.CallerCount.Sign() == 0 {
			continue // caller has no contexts (should not happen)
		}
		pairRel, err := n.edgeContextBDD(m, caller.Phys, callee.Phys, em, capM)
		if err != nil {
			m.Deref(root)
			return nil, err
		}
		if pairRel == bdd.False {
			continue
		}
		iEq := invoke.Phys.Eq(uint64(e.Invoke))
		mEq := method.Phys.Eq(uint64(e.Callee))
		t1 := m.And(pairRel, iEq)
		t2 := m.And(t1, mEq)
		next := m.Or(root, t2)
		for _, nd := range []bdd.Node{pairRel, iEq, mEq, t1, t2, root} {
			m.Deref(nd)
		}
		root = next
	}
	return u.NewRelationFromBDD(name, root, caller, invoke, callee, method), nil
}

// edgeContextBDD builds the (caller context, callee context) relation of
// one invocation edge, splitting between the distinct range and the
// merged overflow context. Returned node is referenced.
func (n *Numbering) edgeContextBDD(m *bdd.Manager, ccPhys, cmPhys *bdd.Domain, em EdgeMap, capM uint64) (bdd.Node, error) {
	k := CappedCount(em.CallerCount, capM)
	if em.SameSCC {
		return m.AddConst(ccPhys, cmPhys, 0, 1, k)
	}
	// Distinct part: x in [1, hiDistinct] maps to x+offset.
	var hiDistinct uint64
	offsetBig := em.Offset
	if offsetBig.IsUint64() && offsetBig.Uint64() < capM {
		off := offsetBig.Uint64()
		hiDistinct = capM - off
		if hiDistinct > k {
			hiDistinct = k
		}
		res := m.Ref(bdd.False)
		if hiDistinct >= 1 {
			add, err := m.AddConst(ccPhys, cmPhys, off, 1, hiDistinct)
			if err != nil {
				m.Deref(res)
				return bdd.False, err
			}
			next := m.Or(res, add)
			m.Deref(res)
			m.Deref(add)
			res = next
		}
		if hiDistinct < k {
			merged := mergedPart(m, ccPhys, cmPhys, hiDistinct+1, k, capM)
			next := m.Or(res, merged)
			m.Deref(res)
			m.Deref(merged)
			res = next
		}
		return res, nil
	}
	// Offset at or beyond the merge point: everything merges.
	return mergedPart(m, ccPhys, cmPhys, 1, k, capM), nil
}

// mergedPart builds callerRange(lo..hi) × {merged}. Referenced.
func mergedPart(m *bdd.Manager, ccPhys, cmPhys *bdd.Domain, lo, hi, capM uint64) bdd.Node {
	if lo > hi {
		return m.Ref(bdd.False)
	}
	rng := ccPhys.Range(lo, hi)
	tgt := cmPhys.Eq(capM)
	res := m.And(rng, tgt)
	m.Deref(rng)
	m.Deref(tgt)
	return res
}

// MaterializeHC builds hC(context, heap): allocation site h executes in
// context c of its containing method. allocMethod maps H indices to M
// indices; entries < 0 (the global object) execute in every context.
func (n *Numbering) MaterializeHC(u *rel.Universe, name string, context, heap rel.Attr, allocMethod []int) *rel.Relation {
	m := u.M
	capM := mergeValue(context.Phys)
	root := m.Ref(bdd.False)

	// Group allocation sites by method so each method's context range is
	// built once. Groups are visited in order of first appearance, not
	// map order, so node numbering repeats from run to run.
	var methods []int
	byMethod := make(map[int][][]uint64)
	for h, meth := range allocMethod {
		if byMethod[meth] == nil {
			methods = append(methods, meth)
		}
		byMethod[meth] = append(byMethod[meth], []uint64{uint64(h)})
	}
	for _, meth := range methods {
		heaps := byMethod[meth]
		var rng bdd.Node
		if meth < 0 {
			// Global objects live in every context (Algorithm 7: "All
			// global objects across all contexts are given the same
			// context"; for call-path contexts they must join with any).
			rng = context.Phys.DomainConstraint()
		} else {
			k := CappedCount(n.MethodContexts(meth), capM)
			if k == 0 {
				continue // unreachable methods have no contexts
			}
			rng = context.Phys.Range(1, k)
		}
		hs := m.TupleSet([]*bdd.Domain{heap.Phys}, heaps)
		pair := m.And(rng, hs)
		next := m.Or(root, pair)
		for _, nd := range []bdd.Node{rng, hs, pair, root} {
			m.Deref(nd)
		}
		root = next
	}
	return u.NewRelationFromBDD(name, root, context, heap)
}

// MaterializeHeapContexts builds Algorithm 8's hcH(context, hctx,
// heap) diagonal: allocation site h executing in context c of its
// containing method allocates heap clone hctx = c — one AddConst per
// method, O(k) in BDD nodes, which requires context and hctx to share
// an interleaved order block ("C+HC"). Heap-context value 0 is the
// "no heap context" clone: sites flagged in noHeapContext (and global
// objects, which live in every context) allocate hctx = 0, keeping
// them context-insensitive exactly like Algorithm 5.
func (n *Numbering) MaterializeHeapContexts(u *rel.Universe, name string, context, hctx, heap rel.Attr, allocMethod []int, noHeapContext []bool) (*rel.Relation, error) {
	m := u.M
	capM := mergeValue(context.Phys)
	root := m.Ref(bdd.False)

	// Group allocation sites by (method, cloned?) so each group's
	// (context, hctx) part is built once.
	type grp struct {
		meth   int
		cloned bool
	}
	var groups []grp // in order of first appearance, as in MaterializeHC
	byGroup := make(map[grp][][]uint64)
	for h, meth := range allocMethod {
		cloned := meth >= 0 && !(h < len(noHeapContext) && noHeapContext[h])
		g := grp{meth, cloned}
		if byGroup[g] == nil {
			groups = append(groups, g)
		}
		byGroup[g] = append(byGroup[g], []uint64{uint64(h)})
	}
	for _, g := range groups {
		heaps := byGroup[g]
		var pairs bdd.Node
		if g.meth < 0 {
			// Global objects: every context, the context-insensitive clone.
			full := context.Phys.DomainConstraint()
			zero := hctx.Phys.Eq(0)
			pairs = m.And(full, zero)
			m.Deref(full)
			m.Deref(zero)
		} else {
			k := CappedCount(n.MethodContexts(g.meth), capM)
			if k == 0 {
				continue // unreachable methods have no contexts
			}
			if g.cloned {
				var err error
				pairs, err = m.AddConst(context.Phys, hctx.Phys, 0, 1, k)
				if err != nil {
					m.Deref(root)
					return nil, err
				}
			} else {
				rng := context.Phys.Range(1, k)
				zero := hctx.Phys.Eq(0)
				pairs = m.And(rng, zero)
				m.Deref(rng)
				m.Deref(zero)
			}
		}
		hs := m.TupleSet([]*bdd.Domain{heap.Phys}, heaps)
		tri := m.And(pairs, hs)
		next := m.Or(root, tri)
		for _, nd := range []bdd.Node{pairs, hs, tri, root} {
			m.Deref(nd)
		}
		root = next
	}
	return u.NewRelationFromBDD(name, root, context, hctx, heap), nil
}

// MaterializeMethodContexts builds mC(context, method): method m runs
// under context c. Useful for queries and the thread analysis.
func (n *Numbering) MaterializeMethodContexts(u *rel.Universe, name string, context, method rel.Attr) *rel.Relation {
	m := u.M
	capM := mergeValue(context.Phys)
	root := m.Ref(bdd.False)
	for meth := 0; meth < n.G.NumMethods; meth++ {
		k := CappedCount(n.MethodContexts(meth), capM)
		if k == 0 {
			continue
		}
		rng := context.Phys.Range(1, k)
		mEq := method.Phys.Eq(uint64(meth))
		pair := m.And(rng, mEq)
		next := m.Or(root, pair)
		for _, nd := range []bdd.Node{rng, mEq, pair, root} {
			m.Deref(nd)
		}
		root = next
	}
	return u.NewRelationFromBDD(name, root, context, method)
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
