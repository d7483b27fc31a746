package scc

import (
	"math/rand"
	"runtime/debug"
	"testing"
)

// TestComponentsMatchReachability checks Components against a
// transitive-closure oracle on random graphs: two nodes share a
// component exactly when each reaches the other, every edge between
// components runs from a higher id to a lower one, and the ids are
// 0..n-1.
func TestComponentsMatchReachability(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for g := 0; g < 500; g++ {
		nodes := 1 + rng.Intn(40)
		density := rng.Float64() * 3 / float64(nodes)
		succ := make([][]int, nodes)
		reach := make([][]bool, nodes)
		for u := range succ {
			reach[u] = make([]bool, nodes)
			reach[u][u] = true
			for v := 0; v < nodes; v++ {
				if rng.Float64() < density {
					succ[u] = append(succ[u], v)
					reach[u][v] = true
				}
			}
		}
		for k := range reach {
			for u := range reach {
				if reach[u][k] {
					for v := range reach {
						reach[u][v] = reach[u][v] || reach[k][v]
					}
				}
			}
		}
		comp, n := Components(succ)
		used := make([]bool, n)
		for u := range succ {
			if comp[u] < 0 || comp[u] >= n {
				t.Fatalf("graph %d: node %d has id %d of %d", g, u, comp[u], n)
			}
			used[comp[u]] = true
			for v := range succ {
				if same, mutual := comp[u] == comp[v], reach[u][v] && reach[v][u]; same != mutual {
					t.Fatalf("graph %d: nodes %d, %d share a component: %v, reach each other: %v", g, u, v, same, mutual)
				}
			}
			for _, v := range succ[u] {
				if comp[u] != comp[v] && comp[u] < comp[v] {
					t.Fatalf("graph %d: edge %d -> %d runs from component %d up to %d", g, u, v, comp[u], comp[v])
				}
			}
		}
		for c, ok := range used {
			if !ok {
				t.Fatalf("graph %d: component id %d of %d is unused", g, c, n)
			}
		}
	}
}

// TestComponentsDeepChain runs a 100,000-node chain, open and closed
// into one cycle, under a 1 MB goroutine stack limit, which a
// recursive Tarjan at that depth would overflow.
func TestComponentsDeepChain(t *testing.T) {
	defer debug.SetMaxStack(debug.SetMaxStack(1 << 20))
	const nodes = 100_000
	succ := make([][]int, nodes)
	for i := 0; i+1 < nodes; i++ {
		succ[i] = []int{i + 1}
	}
	comp, n := Components(succ)
	if n != nodes {
		t.Fatalf("open chain: %d components, want %d", n, nodes)
	}
	for i := 0; i+1 < nodes; i++ {
		if comp[i] <= comp[i+1] {
			t.Fatalf("open chain: comp[%d] = %d, comp[%d] = %d", i, comp[i], i+1, comp[i+1])
		}
	}
	succ[nodes-1] = []int{0}
	if comp, n = Components(succ); n != 1 {
		t.Fatalf("closed chain: %d components, want 1", n)
	}
	for i, c := range comp {
		if c != 0 {
			t.Fatalf("closed chain: comp[%d] = %d", i, c)
		}
	}
}
