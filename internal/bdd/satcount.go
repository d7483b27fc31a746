package bdd

import (
	"fmt"
	"math/big"
	"math/bits"
)

// Exact model counting in one pass over the DAG. A node at position p
// in vars holds 2^p times its count over the positions from p down:
// its count over all of vars, with the positions above it free. That
// value needs no positions to combine, since for every node x
//
//	v(x) = (v(low) + v(high)) / 2,  v(True) = 2^len(vars), v(False) = 0,
//
// and the root's value is the answer. A value is at most
// 2^len(vars), so it is kept as len(vars)/64+1 little-endian uint64
// words, all values in one flat slab. The memo maps each counted node
// to its slab slot in an open-addressed table that doubles with the
// DAG it walks, so a count allocates nothing per node and the manager
// keeps nothing between counts. Only the root's value becomes a
// big.Int.

// SatCount returns the exact number of satisfying assignments of a over
// all the manager's variables, as a big integer.
func (m *Manager) SatCount(a Node) *big.Int {
	vars := make([]int32, m.nvars)
	for i := range vars {
		vars[i] = int32(i)
	}
	return m.SatCountIn(a, vars)
}

// SatCountIn returns the number of satisfying assignments of a counted
// over exactly the given variable levels (sorted ascending). a's support
// must be a subset of vars.
func (m *Manager) SatCountIn(a Node, vars []int32) *big.Int {
	in := make([]bool, m.nvars)
	for i, v := range vars {
		if i > 0 && vars[i-1] >= v {
			panic(fmt.Sprintf("bdd: SatCountIn vars must be sorted ascending and unique (vars[%d]=%d, vars[%d]=%d)",
				i-1, vars[i-1], i, v))
		}
		if v >= 0 && v < m.nvars {
			in[v] = true
		}
	}
	n := len(vars)
	c := satCounter{m: m, in: in, words: n/64 + 1}
	c.slab = make([]uint64, 2*c.words, 64*c.words)
	c.slab[c.words+n/64] = 1 << uint(n%64)
	c.memo = make([]satEntry, satMemoMin)
	c.mask = satMemoMin - 1
	v := c.value(c.count(a))
	res, w := new(big.Int), new(big.Int)
	for i := len(v) - 1; i >= 0; i-- {
		res.Lsh(res, 64)
		res.Or(res, w.SetUint64(v[i]))
	}
	return res
}

// satCounter is the state of one SatCountIn walk.
type satCounter struct {
	m     *Manager
	in    []bool // by level: the level is in vars
	words int    // uint64 words per value

	// slab holds the values; slot 0 is False's, slot 1 True's.
	slab []uint64
	// memo is the open-addressed node -> slot table, at most half
	// full. A zero key is empty: terminals are never entered.
	memo []satEntry
	mask uint64
	used int
}

type satEntry struct {
	key  Node
	slot int32
}

const satMemoMin = 1 << 8

func (c *satCounter) value(slot int32) []uint64 {
	return c.slab[int(slot)*c.words : int(slot+1)*c.words]
}

// count returns the slab slot holding x's value.
func (c *satCounter) count(x Node) int32 {
	if x <= 1 {
		return int32(x)
	}
	if 2*(c.used+1) > len(c.memo) {
		c.growMemo()
	}
	s := mix1(uint64(x)) & c.mask
	for e := c.memo[s]; e.key != 0; e = c.memo[s] {
		if e.key == x {
			return e.slot
		}
		s = (s + 1) & c.mask
	}
	// Claim the empty slot before recursing so the children's entries
	// probe past it; if they grow the table, find x's entry again.
	c.memo[s].key = x
	c.used++
	size := len(c.memo)

	nd := c.m.nodes[x]
	if !c.in[nd.level()] {
		panic(fmt.Sprintf("bdd: SatCountIn: node depends on level %d outside vars", nd.level()))
	}
	lo, hi := c.count(nd.low), c.count(nd.high)
	slot := int32(len(c.slab) / c.words)
	if end := len(c.slab) + c.words; end <= cap(c.slab) {
		c.slab = c.slab[:end]
	} else {
		c.slab = append(make([]uint64, 0, 2*cap(c.slab)), c.slab...)[:end]
	}
	c.halfSum(c.value(slot), c.value(lo), c.value(hi))

	if len(c.memo) != size {
		s = mix1(uint64(x)) & c.mask
		for c.memo[s].key != x {
			s = (s + 1) & c.mask
		}
	}
	c.memo[s].slot = slot
	return slot
}

// halfSum sets dst to (a + b) / 2, a and b being the values of a
// node's children. The sum is even, and below 2^(len(vars)+1): only
// True's value reaches 2^len(vars), and the two children of a node are
// never both True. So it fits in the words with no carry out of the top.
func (c *satCounter) halfSum(dst, a, b []uint64) {
	var carry uint64
	for i := range dst {
		dst[i], carry = bits.Add64(a[i], b[i], carry)
	}
	last := len(dst) - 1
	for i := 0; i < last; i++ {
		dst[i] = dst[i]>>1 | dst[i+1]<<63
	}
	dst[last] >>= 1
}

// growMemo doubles the memo table and re-enters every entry.
func (c *satCounter) growMemo() {
	old := c.memo
	c.memo = make([]satEntry, 2*len(old))
	c.mask = uint64(len(c.memo) - 1)
	for _, e := range old {
		if e.key == 0 {
			continue
		}
		s := mix1(uint64(e.key)) & c.mask
		for c.memo[s].key != 0 {
			s = (s + 1) & c.mask
		}
		c.memo[s] = e
	}
}
