package datalog

import "bddbddb/internal/datalog/check"

// stratum is one evaluation unit: a strongly connected component of the
// predicate dependence graph, with the rules defining its predicates.
type stratum struct {
	preds []string        // predicates defined here (sorted, for determinism)
	in    map[string]bool // membership set of preds
	rules []*Rule         // rules whose head is in preds, in program order
	// reads lists the outside predicates the non-fact rules read, in
	// rule and literal order; negated has an entry for each, true when
	// some rule reads it under negation.
	reads   []string
	negated map[string]bool
}

// stratify splits the program into strata: the components of the
// checker's predicate-dependency graph (check.Stratify) in evaluation
// order, each with the rules defining its predicates. Components with
// no rules (pure inputs) need no evaluation and are dropped. It rejects
// programs where a negation occurs inside a cycle (not stratified),
// which is the same subclass bddbddb accepts (Section 2.1).
func stratify(prog *Program) ([]*stratum, error) {
	comps, nc := check.Stratify(prog)
	if nc != nil {
		return nil, check.Errorf(check.CodeStratify, prog.File, nc.Line, nc.Col,
			"program is not stratified: %s", nc)
	}
	all := make([]*stratum, len(comps))
	byPred := make(map[string]*stratum)
	for i, preds := range comps {
		st := &stratum{preds: preds, in: make(map[string]bool, len(preds)), negated: make(map[string]bool)}
		for _, p := range preds {
			st.in[p] = true
			byPred[p] = st
		}
		all[i] = st
	}
	for _, rule := range prog.Rules {
		st := byPred[rule.Head.Pred]
		st.rules = append(st.rules, rule)
		for _, lit := range rule.Body {
			p := lit.Atom.Pred
			if st.in[p] {
				continue
			}
			if _, seen := st.negated[p]; !seen {
				st.reads = append(st.reads, p)
			}
			st.negated[p] = st.negated[p] || lit.Negated
		}
	}
	var out []*stratum
	for _, st := range all {
		if len(st.rules) > 0 {
			out = append(out, st)
		}
	}
	return out, nil
}
