package bdd

import (
	"fmt"
)

// Binary operator codes for apply. The codes are also cache keys.
const (
	opAnd int32 = iota
	opOr
	opXor
	opDiff // a AND NOT b
	opImp  // NOT a OR b
	opBiimp
	opITE
	opExist
	opAppexAnd
)

// And returns a ∧ b. The result is referenced for the caller.
func (m *Manager) And(a, b Node) Node { return m.Ref(m.apply(a, b, opAnd)) }

// Or returns a ∨ b. The result is referenced for the caller.
func (m *Manager) Or(a, b Node) Node { return m.Ref(m.apply(a, b, opOr)) }

// Xor returns a ⊕ b. The result is referenced for the caller.
func (m *Manager) Xor(a, b Node) Node { return m.Ref(m.apply(a, b, opXor)) }

// Diff returns a ∧ ¬b (set difference). The result is referenced.
func (m *Manager) Diff(a, b Node) Node { return m.Ref(m.apply(a, b, opDiff)) }

// Imp returns a → b. The result is referenced for the caller.
func (m *Manager) Imp(a, b Node) Node { return m.Ref(m.apply(a, b, opImp)) }

// Biimp returns a ↔ b. The result is referenced for the caller.
func (m *Manager) Biimp(a, b Node) Node { return m.Ref(m.apply(a, b, opBiimp)) }

// Not returns ¬a. The result is referenced for the caller.
func (m *Manager) Not(a Node) Node { return m.Ref(m.not(a)) }

// ITE returns if-then-else(f, g, h) = (f∧g) ∨ (¬f∧h). Referenced.
func (m *Manager) ITE(f, g, h Node) Node { return m.Ref(m.ite(f, g, h)) }

func applyTerminal(a, b Node, op int32) (Node, bool) {
	switch op {
	case opAnd:
		if a == b {
			return a, true
		}
		if a == False || b == False {
			return False, true
		}
		if a == True {
			return b, true
		}
		if b == True {
			return a, true
		}
	case opOr:
		if a == b {
			return a, true
		}
		if a == True || b == True {
			return True, true
		}
		if a == False {
			return b, true
		}
		if b == False {
			return a, true
		}
	case opXor:
		if a == b {
			return False, true
		}
		if a == False {
			return b, true
		}
		if b == False {
			return a, true
		}
	case opDiff:
		if a == b || a == False {
			return False, true
		}
		if b == False {
			return a, true
		}
		if b == True {
			return False, true
		}
	case opImp:
		if a == False || b == True {
			return True, true
		}
		if a == True {
			return b, true
		}
	case opBiimp:
		if a == b {
			return True, true
		}
		if a == True {
			return b, true
		}
		if b == True {
			return a, true
		}
	}
	if a <= 1 && b <= 1 {
		// Remaining all-terminal combinations.
		av, bv := a == True, b == True
		var r bool
		switch op {
		case opAnd:
			r = av && bv
		case opOr:
			r = av || bv
		case opXor:
			r = av != bv
		case opDiff:
			r = av && !bv
		case opImp:
			r = !av || bv
		case opBiimp:
			r = av == bv
		default:
			panic(fmt.Sprintf("bdd: applyTerminal called with non-boolean op code %d", op))
		}
		if r {
			return True, true
		}
		return False, true
	}
	return 0, false
}

func (m *Manager) apply(a, b Node, op int32) Node {
	m.control.Poll()
	if r, ok := applyTerminal(a, b, op); ok {
		return r
	}
	// Normalize commutative operands for better cache hit rates.
	switch op {
	case opAnd, opOr, opXor, opBiimp:
		if a > b {
			a, b = b, a
		}
	}
	e, ok := m.applyCache.lookup(a, b, op)
	if ok {
		return e.res
	}
	la, lb := m.nodes[a].level(), m.nodes[b].level()
	var lv int32
	var a0, a1, b0, b1 Node
	switch {
	case la == lb:
		lv = la
		a0, a1 = m.nodes[a].low, m.nodes[a].high
		b0, b1 = m.nodes[b].low, m.nodes[b].high
	case la < lb:
		lv = la
		a0, a1 = m.nodes[a].low, m.nodes[a].high
		b0, b1 = b, b
	default:
		lv = lb
		a0, a1 = a, a
		b0, b1 = m.nodes[b].low, m.nodes[b].high
	}
	low := m.apply(a0, b0, op)
	high := m.apply(a1, b1, op)
	res := m.makeNode(lv, low, high)
	*e = entry3{a, b, op, res}
	return res
}

func (m *Manager) not(a Node) Node {
	if a == False {
		return True
	}
	if a == True {
		return False
	}
	e, ok := m.notCache.lookup(a)
	if ok {
		return e.res
	}
	low := m.not(m.nodes[a].low)
	high := m.not(m.nodes[a].high)
	res := m.makeNode(m.nodes[a].level(), low, high)
	*e = entry1{a, res}
	return res
}

func (m *Manager) ite(f, g, h Node) Node {
	switch {
	case f == True:
		return g
	case f == False:
		return h
	case g == h:
		return g
	case g == True && h == False:
		return f
	case g == False && h == True:
		return m.not(f)
	}
	e, ok := m.appexCache.lookup(f, g, h, opITE)
	if ok {
		return e.res
	}
	lv := m.nodes[f].level()
	if l := m.nodes[g].level(); l < lv {
		lv = l
	}
	if l := m.nodes[h].level(); l < lv {
		lv = l
	}
	cof := func(n Node, high bool) Node {
		if m.nodes[n].level() != lv {
			return n
		}
		if high {
			return m.nodes[n].high
		}
		return m.nodes[n].low
	}
	low := m.ite(cof(f, false), cof(g, false), cof(h, false))
	high := m.ite(cof(f, true), cof(g, true), cof(h, true))
	res := m.makeNode(lv, low, high)
	*e = entry4{f, g, h, opITE, res}
	return res
}

// MakeSet returns the varset (conjunction of the variables at the given
// levels) used by Exist and AndExist. Referenced for the caller.
func (m *Manager) MakeSet(levels []int32) Node {
	sorted := make([]int32, len(levels))
	copy(sorted, levels)
	sortInt32(sorted)
	res := True
	for i := len(sorted) - 1; i >= 0; i-- {
		if i+1 < len(sorted) && sorted[i] == sorted[i+1] {
			continue
		}
		res = m.makeNode(sorted[i], False, res)
	}
	return m.Ref(res)
}

// Exist existentially quantifies away the variables in varset from a:
// ∃v₁…vₖ . a. The result is referenced for the caller.
func (m *Manager) Exist(a, varset Node) Node { return m.Ref(m.exist(a, varset)) }

func (m *Manager) exist(a, vs Node) Node {
	m.control.Poll()
	if a <= 1 || vs == True {
		return a
	}
	la := m.nodes[a].level()
	for vs != True && m.nodes[vs].level() < la {
		vs = m.nodes[vs].high
	}
	if vs == True {
		return a
	}
	e, ok := m.quantCache.lookup(a, vs, opExist)
	if ok {
		return e.res
	}
	var res Node
	if m.nodes[vs].level() == la {
		low := m.exist(m.nodes[a].low, m.nodes[vs].high)
		high := m.exist(m.nodes[a].high, m.nodes[vs].high)
		res = m.apply(low, high, opOr)
	} else {
		low := m.exist(m.nodes[a].low, vs)
		high := m.exist(m.nodes[a].high, vs)
		res = m.makeNode(la, low, high)
	}
	*e = entry3{a, vs, opExist, res}
	return res
}

// AndExist computes ∃varset . (a ∧ b) in one pass — BuDDy's bdd_relprod,
// the workhorse of relational join-and-project. Referenced for caller.
func (m *Manager) AndExist(a, b, varset Node) Node {
	return m.Ref(m.andExist(a, b, varset))
}

func (m *Manager) andExist(a, b, vs Node) Node {
	m.control.Poll()
	if a == False || b == False {
		return False
	}
	if a == True && b == True {
		return True
	}
	if vs == True {
		return m.apply(a, b, opAnd)
	}
	if a == True {
		return m.exist(b, vs)
	}
	if b == True {
		return m.exist(a, vs)
	}
	if a > b {
		a, b = b, a
	}
	lv := m.nodes[a].level()
	if l := m.nodes[b].level(); l < lv {
		lv = l
	}
	for vs != True && m.nodes[vs].level() < lv {
		vs = m.nodes[vs].high
	}
	if vs == True {
		return m.apply(a, b, opAnd)
	}
	e, ok := m.appexCache.lookup(a, b, vs, opAppexAnd)
	if ok {
		return e.res
	}
	cof := func(n Node, high bool) Node {
		if m.nodes[n].level() != lv {
			return n
		}
		if high {
			return m.nodes[n].high
		}
		return m.nodes[n].low
	}
	var res Node
	if m.nodes[vs].level() == lv {
		low := m.andExist(cof(a, false), cof(b, false), m.nodes[vs].high)
		high := m.andExist(cof(a, true), cof(b, true), m.nodes[vs].high)
		res = m.apply(low, high, opOr)
	} else {
		low := m.andExist(cof(a, false), cof(b, false), vs)
		high := m.andExist(cof(a, true), cof(b, true), vs)
		res = m.makeNode(lv, low, high)
	}
	*e = entry4{a, b, vs, opAppexAnd, res}
	return res
}

// AllSat enumerates every satisfying assignment of a over the given
// variable levels (sorted ascending; a's support must be a subset).
// Don't-care variables are expanded, so the callback sees complete
// assignments; it receives values indexed like vars and must not retain
// the slice. Enumeration stops early if fn returns false.
func (m *Manager) AllSat(a Node, vars []int32, fn func(values []bool) bool) {
	values := make([]bool, len(vars))
	var rec func(idx int, n Node) bool
	rec = func(idx int, n Node) bool {
		if n == False {
			return true
		}
		if idx == len(vars) {
			if n != True {
				panic(fmt.Sprintf("bdd: AllSat: node at level %d depends on a level outside the %d given vars",
					m.nodes[n].level(), len(vars)))
			}
			return fn(values)
		}
		lv := vars[idx]
		nl := m.nodes[n].level()
		if n <= 1 || nl > lv {
			values[idx] = false
			if !rec(idx+1, n) {
				return false
			}
			values[idx] = true
			return rec(idx+1, n)
		}
		if nl < lv {
			panic(fmt.Sprintf("bdd: AllSat: node level %d above vars[%d]=%d", nl, idx, lv))
		}
		values[idx] = false
		if !rec(idx+1, m.nodes[n].low) {
			return false
		}
		values[idx] = true
		return rec(idx+1, m.nodes[n].high)
	}
	rec(0, a)
}
