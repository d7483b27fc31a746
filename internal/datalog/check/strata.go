package check

import (
	"slices"
	"sort"
	"strings"

	"bddbddb/internal/datalog/ast"
	"bddbddb/internal/scc"
)

// NegationCycle describes a negated dependence inside a recursive
// cycle of the predicate graph — the reason a program fails
// stratification. Cycle is a predicate path whose first and last
// elements coincide; the edge closing the cycle (from Negated into
// Cycle[0]) is the negated one. Line/Col locate the offending negated
// literal.
type NegationCycle struct {
	Cycle   []string
	Negated string
	Line    int
	Col     int
}

// String renders the cycle as "p -> !q -> p": the rule for p reads !q,
// and q is (transitively) derived from p.
func (nc *NegationCycle) String() string {
	parts := make([]string, len(nc.Cycle))
	for i, p := range nc.Cycle {
		if i == len(nc.Cycle)-2 && p == nc.Negated {
			parts[i] = "!" + p
		} else {
			parts[i] = p
		}
	}
	return "recursion through negation: " + strings.Join(parts, " -> ")
}

// Stratify builds the predicate-dependency graph of p's rules — an
// edge from each body predicate to its rule's head — and returns its
// strongly connected components in evaluation order, each listing its
// predicates in sorted order: a component comes after every component
// it reads. Only predicates that occur in some rule are nodes; a
// declared relation no rule mentions would be an isolated node that
// forms no stratum and orders nothing. When a negated dependence lies
// inside a component, the program is not stratifiable: Stratify then
// returns the first such dependence in rule order, as a predicate
// cycle, and no components.
//
// The order is deterministic: predicates are numbered in sorted-name
// order, successor lists follow rule and literal order, and the
// condensation is ordered by a Kahn pass that takes ready components
// by component id.
func Stratify(p *ast.Program) ([][]string, *NegationCycle) {
	ids := make(map[string]int)
	for _, r := range p.Rules {
		ids[r.Head.Pred] = 0
		for i := range r.Body {
			ids[r.Body[i].Atom.Pred] = 0
		}
	}
	names := make([]string, 0, len(ids))
	for n := range ids {
		names = append(names, n)
	}
	sort.Strings(names)
	for i, n := range names {
		ids[n] = i
	}
	type depEdge struct {
		from, to int // body predicate -> head predicate
		lit      *ast.Literal
	}
	var edges []depEdge
	succ := make([][]int, len(names))
	for _, r := range p.Rules {
		to := ids[r.Head.Pred]
		for i := range r.Body {
			from := ids[r.Body[i].Atom.Pred]
			edges = append(edges, depEdge{from, to, &r.Body[i]})
			succ[from] = append(succ[from], to)
		}
	}
	comp, n := scc.Components(succ)

	for _, e := range edges {
		if !e.lit.Negated || comp[e.from] != comp[e.to] {
			continue
		}
		// The negated edge closes a cycle: walk e.to -> ... -> e.from
		// inside the component, then the negated edge returns to e.to.
		var cycle []string
		for _, v := range shortestPath(e.to, e.from, succ, comp) {
			cycle = append(cycle, names[v])
		}
		cycle = append(cycle, names[e.to])
		return nil, &NegationCycle{Cycle: cycle, Negated: names[e.from], Line: e.lit.Atom.Line, Col: e.lit.Atom.Col}
	}

	members := make([][]string, n)
	for v, c := range comp {
		members[c] = append(members[c], names[v])
	}
	compSucc := make([][]int, n)
	indeg := make([]int, n)
	linked := make(map[[2]int]bool)
	for _, e := range edges {
		a, b := comp[e.from], comp[e.to]
		if a != b && !linked[[2]int{a, b}] {
			linked[[2]int{a, b}] = true
			compSucc[a] = append(compSucc[a], b)
			indeg[b]++
		}
	}
	var ready []int
	for c := range n {
		if indeg[c] == 0 {
			ready = append(ready, c)
		}
	}
	order := make([][]string, 0, n)
	for len(ready) > 0 {
		c := ready[0]
		ready = ready[1:]
		order = append(order, members[c])
		var next []int
		for _, d := range compSucc[c] {
			if indeg[d]--; indeg[d] == 0 {
				next = append(next, d)
			}
		}
		sort.Ints(next)
		ready = append(ready, next...)
	}
	return order, nil
}

// shortestPath returns a minimal predicate path from src to dst using
// only edges inside src's component (BFS with sorted neighbors, which
// are sorted names, for determinism). src and dst share a component,
// so a path exists; the degenerate src == dst case yields the
// one-element path.
func shortestPath(src, dst int, succ [][]int, comp []int) []int {
	if src == dst {
		return []int{src}
	}
	parent := make(map[int]int)
	visited := map[int]bool{src: true}
	queue := []int{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		next := slices.Clone(succ[v])
		slices.Sort(next)
		for _, w := range next {
			if visited[w] || comp[w] != comp[src] {
				continue
			}
			visited[w] = true
			parent[w] = v
			if w == dst {
				path := []int{dst}
				for at := dst; at != src; {
					at = parent[at]
					path = append(path, at)
				}
				slices.Reverse(path)
				return path
			}
			queue = append(queue, w)
		}
	}
	// Unreachable for nodes in one SCC; return the endpoints so the
	// diagnostic still names both predicates.
	return []int{src, dst}
}
