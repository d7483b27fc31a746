// Package callgraph implements Section 4 of the paper: the call
// multigraph, its strongly connected components, and Algorithm 4's
// context numbering, which assigns every method a contiguous range of
// context numbers — one per reduced call path — and maps each
// invocation edge to an "add a constant" relation between caller and
// callee contexts. Counts are exact big integers (real programs exceed
// 10^14 contexts; pmd reaches 5×10^23); materialization into BDDs caps
// them at the context domain's capacity, merging the overflow into a
// single context exactly as the paper does past 2^63.
package callgraph

import (
	"fmt"
	"math/big"

	"bddbddb/internal/obs"
	"bddbddb/internal/resilience"
	"bddbddb/internal/scc"
)

// Edge is one invocation edge: invocation site Invoke (an I index) in
// method Caller calls method Callee (M indices).
type Edge struct {
	Invoke         int
	Caller, Callee int
}

// Graph is a call multigraph.
type Graph struct {
	NumMethods int
	Edges      []Edge
	Entries    []int // entry method indices (roots of call paths)
}

// Validate checks index ranges.
func (g *Graph) Validate() error {
	for _, e := range g.Edges {
		if e.Caller < 0 || e.Caller >= g.NumMethods || e.Callee < 0 || e.Callee >= g.NumMethods {
			return fmt.Errorf("callgraph: edge %+v out of range (%d methods)", e, g.NumMethods)
		}
	}
	for _, m := range g.Entries {
		if m < 0 || m >= g.NumMethods {
			return fmt.Errorf("callgraph: entry %d out of range", m)
		}
	}
	return nil
}

// SCC computes the strongly connected components of the call graph
// (scc.Components over the caller -> callee edges, in edge order).
// Returns the component id per method and the component count; ids
// are in reverse topological order of the condensation (successors
// have smaller ids).
func (g *Graph) SCC() (comp []int, n int) {
	succ := make([][]int, g.NumMethods)
	for _, e := range g.Edges {
		succ[e.Caller] = append(succ[e.Caller], e.Callee)
	}
	return scc.Components(succ)
}

// EdgeMap describes how one invocation edge renumbers contexts:
// caller context x in [1, CallerCount] maps to callee context x+Offset.
// Edges inside one SCC map identically (Offset 0 over the full count).
type EdgeMap struct {
	SameSCC     bool
	CallerCount *big.Int // contexts of the caller (pre-cap)
	Offset      *big.Int // callee = caller + Offset
}

// Numbering is the result of Algorithm 4 on a Graph.
type Numbering struct {
	G    *Graph
	Comp []int // method -> component id

	// Counts[c] is the exact context count of component c.
	Counts []*big.Int
	// EdgeMaps is parallel to G.Edges.
	EdgeMaps []EdgeMap
	// MaxContexts is the largest per-method context count; TotalPaths is
	// the sum over methods — both are Figure 3's "C.S. paths" scale.
	MaxContexts *big.Int
	TotalPaths  *big.Int
}

// MethodContexts returns the exact context count of a method.
func (n *Numbering) MethodContexts(m int) *big.Int { return n.Counts[n.Comp[m]] }

// Number runs Algorithm 4: SCC collapse, topological walk, contiguous
// context ranges per incoming edge.
func Number(g *Graph) (*Numbering, error) { return NumberTraced(g, nil) }

// NumberTraced is Number with its two phases — SCC reduction and the
// numbering walk — emitted as spans on tr (nil tr traces nothing).
func NumberTraced(g *Graph, tr obs.Tracer) (*Numbering, error) {
	return NumberControlled(g, tr, nil)
}

// NumberControlled is NumberTraced polling ctl for cancellation across
// the per-edge loops — on graphs with hundreds of thousands of
// invocation edges the numbering walk is the one pure-Go phase long
// enough to need its own polls (the materialization loops in iec.go are
// covered by the BDD manager's control instead). A nil ctl costs
// nothing.
func NumberControlled(g *Graph, tr obs.Tracer, ctl *resilience.Controller) (*Numbering, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	obs.Begin(tr, "callgraph.scc", obs.A("methods", g.NumMethods), obs.A("edges", len(g.Edges)))
	comp, nComp := g.SCC()
	obs.End(tr, obs.A("components", nComp))
	obs.Begin(tr, "callgraph.number")
	defer obs.End(tr)
	// Incoming cross-component edges per component, in edge order
	// ("we shall visit the invocation edges from left to right").
	incoming := make([][]int, nComp)
	for ei, e := range g.Edges {
		ctl.Poll()
		cc, ce := comp[e.Caller], comp[e.Callee]
		if cc != ce {
			incoming[ce] = append(incoming[ce], ei)
		}
	}
	isEntry := make([]bool, nComp)
	for _, m := range g.Entries {
		isEntry[comp[m]] = true
	}

	// Topological order of the condensation: Tarjan emits components in
	// reverse topological order, so walk ids downward.
	order := make([]int, nComp)
	for i := range order {
		order[i] = nComp - 1 - i
	}

	counts := make([]*big.Int, nComp)
	maps := make([]EdgeMap, len(g.Edges))
	one := big.NewInt(1)
	for _, c := range order {
		ctl.Poll()
		total := new(big.Int)
		// Entry components (and isolated roots) own context 1.
		if isEntry[c] || len(incoming[c]) == 0 {
			total.Set(one)
		}
		for _, ei := range incoming[c] {
			e := g.Edges[ei]
			k := counts[comp[e.Caller]]
			if k == nil {
				return nil, fmt.Errorf("callgraph: internal: component order broken")
			}
			maps[ei] = EdgeMap{CallerCount: new(big.Int).Set(k), Offset: new(big.Int).Set(total)}
			total.Add(total, k)
		}
		counts[c] = total
	}
	// Intra-SCC edges map identically.
	for ei, e := range g.Edges {
		if comp[e.Caller] == comp[e.Callee] {
			maps[ei] = EdgeMap{SameSCC: true, CallerCount: new(big.Int).Set(counts[comp[e.Caller]]), Offset: new(big.Int)}
		}
	}

	n := &Numbering{
		G:           g,
		Comp:        comp,
		Counts:      counts,
		EdgeMaps:    maps,
		MaxContexts: new(big.Int),
		TotalPaths:  new(big.Int),
	}
	for m := 0; m < g.NumMethods; m++ {
		k := counts[comp[m]]
		if k.Cmp(n.MaxContexts) > 0 {
			n.MaxContexts.Set(k)
		}
		n.TotalPaths.Add(n.TotalPaths, k)
	}
	return n, nil
}

// CappedCount clamps a big count to the context-domain capacity.
func CappedCount(k *big.Int, cap uint64) uint64 {
	if k.IsUint64() && k.Uint64() <= cap {
		return k.Uint64()
	}
	return cap
}

// ReachableMethods returns the methods reachable from the entries over
// the graph's edges (used for Figure 3's "reachable parts" counts).
func (g *Graph) ReachableMethods() []bool {
	succ := make([][]int, g.NumMethods)
	for _, e := range g.Edges {
		succ[e.Caller] = append(succ[e.Caller], e.Callee)
	}
	seen := make([]bool, g.NumMethods)
	stack := append([]int(nil), g.Entries...)
	for _, m := range g.Entries {
		seen[m] = true
	}
	for len(stack) > 0 {
		m := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range succ[m] {
			if !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	return seen
}

// FormatPathCount renders a big context count the way Figure 3 prints
// them, e.g. "5e23" for 5×10^23, exact below 10^5.
func FormatPathCount(k *big.Int) string {
	s := k.String()
	if len(s) <= 5 {
		return s
	}
	return fmt.Sprintf("%ce%d", s[0], len(s)-1)
}
