package callgraph

import (
	"fmt"
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"bddbddb/internal/rel"
)

// TestMaterializeMatchesTupleModel checks IEC and the (context,
// element) and (context, hctx, element) relations that seed rule (14)
// and Algorithm 8, tuple for tuple, against a Go-map model enumerated
// straight from Counts and EdgeMaps. The solver differentials all start from the materialized
// IEC, so they cannot see a materialization bug; this test can. Random
// small graphs with SCCs meet a tiny context domain, so edges come out
// distinct, partly merged onto the merge context and fully merged.
// Global objects (method -1), methods with no contexts (k = 0, forced
// by zeroing a component's count) and noHeapContext sites are mixed in.
func TestMaterializeMatchesTupleModel(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	seen := map[string]int{}
	for iter := 0; iter < 300; iter++ {
		g, allocMethod, noHeap := randomMaterializeInput(rng)
		n, err := Number(g)
		if err != nil {
			t.Fatal(err)
		}
		if rng.Intn(3) == 0 {
			// A component without contexts, as an unreachable method has:
			// its methods allocate nothing and its out-edges carry none.
			c := n.Comp[rng.Intn(g.NumMethods)]
			n.Counts[c] = new(big.Int)
			for ei, e := range g.Edges {
				if n.Comp[e.Caller] == c {
					n.EdgeMaps[ei].CallerCount = new(big.Int)
				}
			}
		}
		cSize := uint64(3 + rng.Intn(8))
		u := rel.NewUniverse()
		u.Declare("I", uint64(len(g.Edges)+1))
		u.Declare("M", uint64(g.NumMethods))
		u.Declare("H", uint64(len(allocMethod)))
		u.Declare("C", cSize)
		u.Declare("HC", cSize)
		u.EnsureInstances("C", 2)
		if err := u.Finalize(rel.FinalizeOptions{Order: []string{"I", "M", "C+HC", "H"}}); err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("graph %d (%d methods, %d edges, C size %d)", iter, g.NumMethods, len(g.Edges), cSize)

		iec, err := n.MaterializeIEC(u, "IEC", u.A("caller", "C", 0), u.A("invoke", "I", 0), u.A("callee", "C", 1), u.A("method", "M", 0))
		if err != nil {
			t.Fatal(err)
		}
		sameTuples(t, name+" IEC", iec.Tuples(), modelIEC(n, cSize, seen))
		hc := n.MaterializeContexts(u, "hC", u.A("c", "C", 0), u.A("h", "H", 0), allocMethod)
		sameTuples(t, name+" hC", hc.Tuples(), modelHC(n, cSize, allocMethod, seen))
		hch, err := n.MaterializeHeapContexts(u, "hcH", u.A("c", "C", 0), u.A("hc", "HC", 0), u.A("h", "H", 0), allocMethod, noHeap)
		if err != nil {
			t.Fatal(err)
		}
		sameTuples(t, name+" hcH", hch.Tuples(), modelHcH(n, cSize, allocMethod, noHeap, seen))
		if t.Failed() {
			return
		}
	}
	// The random inputs must reach every case the materializers split on.
	for _, c := range []string{"same-scc edge", "distinct edge", "partly merged edge", "fully merged edge",
		"edge without contexts", "global object", "site without contexts", "site in merged contexts"} {
		if seen[c] == 0 {
			t.Errorf("no %s in any random graph", c)
		}
	}
}

// randomMaterializeInput draws a small call graph (cycles, self-loops
// and virtual call sites with several callees included) plus the
// allocation sites of its methods. noHeap may be shorter than
// allocMethod: sites past its end count as cloned.
func randomMaterializeInput(rng *rand.Rand) (*Graph, []int, []bool) {
	g := &Graph{NumMethods: 2 + rng.Intn(9)}
	g.Entries = []int{0}
	invoke := 0
	for e := rng.Intn(4 * g.NumMethods); e > 0; e-- {
		caller, callee := rng.Intn(g.NumMethods), rng.Intn(g.NumMethods)
		if rng.Intn(4) != 0 && callee < caller {
			caller, callee = callee, caller // mostly downward: deep, merged ladders
		}
		g.Edges = append(g.Edges, Edge{Invoke: invoke, Caller: caller, Callee: callee})
		if rng.Intn(3) != 0 {
			invoke++ // else the next edge shares the call site
		}
	}
	allocMethod := make([]int, 1+rng.Intn(12))
	for h := range allocMethod {
		allocMethod[h] = rng.Intn(g.NumMethods+1) - 1
	}
	noHeap := make([]bool, rng.Intn(len(allocMethod)+1))
	for h := range noHeap {
		noHeap[h] = rng.Intn(2) == 0
	}
	return g, allocMethod, noHeap
}

// modelIEC enumerates IEC: caller context x in 1..k maps to x inside an
// SCC and to x+Offset across components, clamped to the merge value.
func modelIEC(n *Numbering, cSize uint64, seen map[string]int) [][]uint64 {
	capM := cSize - 1
	var out [][]uint64
	for ei, e := range n.G.Edges {
		em := n.EdgeMaps[ei]
		if em.CallerCount.Sign() == 0 {
			seen["edge without contexts"]++
			continue
		}
		k := CappedCount(em.CallerCount, capM)
		merged := 0
		for x := uint64(1); x <= k; x++ {
			y := x
			if !em.SameSCC {
				sum := new(big.Int).Add(em.Offset, new(big.Int).SetUint64(x))
				if y = CappedCount(sum, capM); sum.Cmp(new(big.Int).SetUint64(capM)) > 0 {
					merged++
				}
			}
			out = append(out, []uint64{x, uint64(e.Invoke), y, uint64(e.Callee)})
		}
		switch {
		case em.SameSCC:
			seen["same-scc edge"]++
		case merged == 0:
			seen["distinct edge"]++
		case uint64(merged) < k:
			seen["partly merged edge"]++
		default:
			seen["fully merged edge"]++
		}
	}
	return out
}

// siteContexts lists the contexts allocation site h executes in: every
// context of the domain for a global object, 1..k otherwise.
func siteContexts(n *Numbering, cSize uint64, meth int, seen map[string]int) []uint64 {
	capM := cSize - 1
	var cs []uint64
	if meth < 0 {
		seen["global object"]++
		for c := uint64(0); c < cSize; c++ {
			cs = append(cs, c)
		}
		return cs
	}
	k := n.MethodContexts(meth)
	switch {
	case k.Sign() == 0:
		seen["site without contexts"]++
	case !k.IsUint64() || k.Uint64() > capM:
		seen["site in merged contexts"]++
	}
	for c := uint64(1); c <= CappedCount(k, capM); c++ {
		cs = append(cs, c)
	}
	return cs
}

func modelHC(n *Numbering, cSize uint64, allocMethod []int, seen map[string]int) [][]uint64 {
	var out [][]uint64
	for h, meth := range allocMethod {
		for _, c := range siteContexts(n, cSize, meth, seen) {
			out = append(out, []uint64{c, uint64(h)})
		}
	}
	return out
}

// modelHcH enumerates hcH: a cloned site allocates heap clone c in
// context c; global objects and noHeapContext sites allocate clone 0.
func modelHcH(n *Numbering, cSize uint64, allocMethod []int, noHeap []bool, seen map[string]int) [][]uint64 {
	var out [][]uint64
	for h, meth := range allocMethod {
		cloned := meth >= 0 && !(h < len(noHeap) && noHeap[h])
		for _, c := range siteContexts(n, cSize, meth, seen) {
			hc := uint64(0)
			if cloned {
				hc = c
			}
			out = append(out, []uint64{c, hc, uint64(h)})
		}
	}
	return out
}

// sameTuples compares two tuple lists as sets.
func sameTuples(t *testing.T, what string, got, want [][]uint64) {
	t.Helper()
	key := func(tup []uint64) string { return fmt.Sprint(tup) }
	set := func(ts [][]uint64) []string {
		var ks []string
		for _, tup := range ts {
			ks = append(ks, key(tup))
		}
		slices.Sort(ks)
		return slices.Compact(ks)
	}
	g, w := set(got), set(want)
	if !slices.Equal(g, w) {
		t.Errorf("%s: %d tuples, model has %d\n got %v\nwant %v", what, len(g), len(w), g, w)
	}
}
