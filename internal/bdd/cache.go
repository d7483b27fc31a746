package bdd

// Direct-mapped operation caches in the BuDDy style: each cache is a
// power-of-two array of entries; a lookup hashes the operands to a slot
// and verifies the stored operands. Caches are cleared on GC (node
// indices may be reused) but survive arena growth (indices are stable).
//
// A lookup hashes once and returns the entry's slot either way: on a
// miss the caller computes the result and writes the whole entry back
// into that slot. No GC runs mid-operation and the tables never move, so
// the pointer stays valid across the recursion in between.

const cacheEmpty Node = -1

// mixStep folds one operand into a running hash. mix1..mix4 chain it
// over a fixed number of operands.
func mixStep(h, x uint64) uint64 {
	h ^= x
	h *= 0xff51afd7ed558ccd
	return h ^ h>>33
}

const mixSeed uint64 = 0x9e3779b97f4a7c15

func mix1(a uint64) uint64          { return mixStep(mixSeed, a) }
func mix2(a, b uint64) uint64       { return mixStep(mix1(a), b) }
func mix3(a, b, c uint64) uint64    { return mixStep(mix2(a, b), c) }
func mix4(a, b, c, d uint64) uint64 { return mixStep(mix3(a, b, c), d) }

type entry1 struct {
	a   Node
	res Node
}

type cache1 struct {
	tab    []entry1
	mask   uint64
	hits   int64
	misses int64
}

func (c *cache1) init(n int) {
	c.tab = make([]entry1, n)
	c.mask = uint64(n - 1)
	c.clear()
}

func (c *cache1) clear() {
	for i := range c.tab {
		c.tab[i].a = cacheEmpty
	}
}

func (c *cache1) lookup(a Node) (*entry1, bool) {
	e := &c.tab[mix1(uint64(a))&c.mask]
	if e.a == a {
		c.hits++
		return e, true
	}
	c.misses++
	return e, false
}

type entry2 struct {
	a, b Node
	res  Node
}

type cache2 struct {
	tab    []entry2
	mask   uint64
	hits   int64
	misses int64
}

func (c *cache2) init(n int) {
	c.tab = make([]entry2, n)
	c.mask = uint64(n - 1)
	c.clear()
}

func (c *cache2) clear() {
	for i := range c.tab {
		c.tab[i].a = cacheEmpty
	}
}

func (c *cache2) lookup(a, b Node) (*entry2, bool) {
	e := &c.tab[mix2(uint64(a), uint64(b))&c.mask]
	if e.a == a && e.b == b {
		c.hits++
		return e, true
	}
	c.misses++
	return e, false
}

type entry3 struct {
	a, b Node
	op   int32
	res  Node
}

type cache3 struct {
	tab    []entry3
	mask   uint64
	hits   int64
	misses int64
}

func (c *cache3) init(n int) {
	c.tab = make([]entry3, n)
	c.mask = uint64(n - 1)
	c.clear()
}

func (c *cache3) clear() {
	for i := range c.tab {
		c.tab[i].a = cacheEmpty
	}
}

func (c *cache3) lookup(a, b Node, op int32) (*entry3, bool) {
	e := &c.tab[mix3(uint64(a), uint64(b), uint64(op))&c.mask]
	if e.a == a && e.b == b && e.op == op {
		c.hits++
		return e, true
	}
	c.misses++
	return e, false
}

type entry4 struct {
	a, b, v Node
	op      int32
	res     Node
}

type cache4 struct {
	tab    []entry4
	mask   uint64
	hits   int64
	misses int64
}

func (c *cache4) init(n int) {
	c.tab = make([]entry4, n)
	c.mask = uint64(n - 1)
	c.clear()
}

func (c *cache4) clear() {
	for i := range c.tab {
		c.tab[i].a = cacheEmpty
	}
}

func (c *cache4) lookup(a, b, v Node, op int32) (*entry4, bool) {
	e := &c.tab[mix4(uint64(a), uint64(b), uint64(v), uint64(op))&c.mask]
	if e.a == a && e.b == b && e.v == v && e.op == op {
		c.hits++
		return e, true
	}
	c.misses++
	return e, false
}
