package bdd

import (
	"fmt"
	"slices"
)

// Pair is a variable-renaming map for Replace, BuDDy's bdd_newpair /
// bdd_setpair. It maps source levels to destination levels; unmapped
// levels are unchanged.
type Pair struct {
	m *Manager
	// perm is dense over levels: perm[lv] is lv's destination, and
	// levels past its end or mapped to themselves are unchanged.
	perm []int32
	// into marks the levels some other level is renamed to, so Set
	// checks injectivity without a scan of perm.
	into []bool
	n    int  // number of remapped levels
	id   Node // unique id used as a cache key
}

// NewPair creates an empty renaming pair. The id is a per-manager
// counter (it only needs to be unique within this manager's replace
// cache) so independent managers on different goroutines never touch
// shared state.
func (m *Manager) NewPair() *Pair {
	if m.pairID == 0 {
		m.pairID = 1 << 20
	}
	m.pairID++
	return &Pair{m: m, id: m.pairID}
}

// Set maps the variable at level from to the variable at level to.
// Mapping a level twice or mapping two levels to one destination is an
// error: renamings must be injective.
func (p *Pair) Set(from, to int32) {
	if from == to {
		return
	}
	if old := p.dest(from); old != from {
		if old != to {
			panic(fmt.Sprintf("bdd: pair maps level %d twice (%d and %d)", from, old, to))
		}
		return
	}
	if int(to) < len(p.into) && p.into[to] {
		f := slices.Index(p.perm, to)
		panic(fmt.Sprintf("bdd: pair maps levels %d and %d to same destination %d", f, from, to))
	}
	if n := max(from, to) + 1; int(n) > len(p.perm) {
		// Cover every level the manager has at once, not level by level.
		n = max(n, p.m.nvars)
		for lv := int32(len(p.perm)); lv < n; lv++ {
			p.perm = append(p.perm, lv)
		}
		p.into = append(p.into, make([]bool, int(n)-len(p.into))...)
	}
	p.perm[from] = to
	p.into[to] = true
	p.n++
}

// dest returns the level lv is renamed to (lv itself when unmapped).
func (p *Pair) dest(lv int32) int32 {
	if int(lv) < len(p.perm) {
		return p.perm[lv]
	}
	return lv
}

// SetDomains maps every bit of domain from onto the corresponding bit
// of domain to. The domains must have the same bit width.
func (p *Pair) SetDomains(from, to *Domain) {
	if len(from.levels) != len(to.levels) {
		panic(fmt.Sprintf("bdd: pair over domains %s (%d bits) and %s (%d bits)",
			from.Name, len(from.levels), to.Name, len(to.levels)))
	}
	for i := range from.levels {
		p.Set(from.levels[i], to.levels[i])
	}
}

// Len reports how many levels the pair remaps.
func (p *Pair) Len() int { return p.n }

// Replace renames variables in a according to the pair. Referenced for
// the caller. This is BuDDy's bdd_replace: the implementation recurses
// to the children, substitutes the mapped level, and re-inserts it at
// its proper position in the order (correctify).
func (m *Manager) Replace(a Node, p *Pair) Node {
	if p.n == 0 {
		return m.Ref(a)
	}
	return m.Ref(m.replace(a, p))
}

func (m *Manager) replace(a Node, p *Pair) Node {
	m.control.Poll()
	if a <= 1 {
		return a
	}
	e, ok := m.replCache.lookup(a, p.id)
	if ok {
		return e.res
	}
	nd := m.nodes[a]
	low := m.replace(nd.low, p)
	high := m.replace(nd.high, p)
	res := m.correctify(p.dest(nd.level()), low, high)
	*e = entry2{a, p.id, res}
	return res
}

// correctify builds the function "if var(level) then high else low" when
// level may sit below the roots of low/high in the variable order.
func (m *Manager) correctify(level int32, low, high Node) Node {
	ll, lh := m.nodes[low].level(), m.nodes[high].level()
	if level < ll && level < lh {
		return m.makeNode(level, low, high)
	}
	if level == ll || level == lh {
		panic(fmt.Sprintf("bdd: replace would collapse destination level %d onto a child root (low at level %d, high at level %d): renaming is not injective at this level",
			level, ll, lh))
	}
	if ll == lh {
		l := m.correctify(level, m.nodes[low].low, m.nodes[high].low)
		h := m.correctify(level, m.nodes[low].high, m.nodes[high].high)
		return m.makeNode(ll, l, h)
	}
	if ll < lh {
		l := m.correctify(level, m.nodes[low].low, high)
		h := m.correctify(level, m.nodes[low].high, high)
		return m.makeNode(ll, l, h)
	}
	l := m.correctify(level, low, m.nodes[high].low)
	h := m.correctify(level, low, m.nodes[high].high)
	return m.makeNode(lh, l, h)
}
