// Package scc computes strongly connected components. It is the one
// implementation both users share: Algorithm 4's call-graph reduction
// (internal/callgraph) and the stratification of Datalog predicates
// (internal/datalog/check).
package scc

// Components runs Tarjan's algorithm over a dense graph whose node v
// has successors succ[v] (iterative, so deep chains cannot overflow the
// stack). It returns the component id of every node and the number of
// components. Ids are in reverse topological order of the condensation
// (successors have smaller ids), and roots are visited in node order,
// so the ids depend only on the numbering and successor order.
func Components(succ [][]int) (comp []int, n int) {
	nodes := len(succ)
	comp = make([]int, nodes)
	index := make([]int, nodes)
	low := make([]int, nodes)
	onStack := make([]bool, nodes)
	for i := range index {
		comp[i] = -1
		index[i] = -1
	}
	var stack []int
	counter := 0

	type frame struct {
		v, childIdx int
	}
	for root := 0; root < nodes; root++ {
		if index[root] != -1 {
			continue
		}
		frames := []frame{{root, 0}}
		index[root] = counter
		low[root] = counter
		counter++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.childIdx < len(succ[f.v]) {
				w := succ[f.v][f.childIdx]
				f.childIdx++
				if index[w] == -1 {
					index[w] = counter
					low[w] = counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{w, 0})
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			// Post-visit.
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = n
					if w == v {
						break
					}
				}
				n++
			}
		}
	}
	return comp, n
}
