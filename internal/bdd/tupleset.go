package bdd

import (
	"fmt"
	"slices"
	"sort"
)

// TupleSet returns the set of the given rows as one BDD: row[i] is a
// value of doms[i], and the result holds exactly the rows listed. It is
// the bulk loader behind relation fills. Rows may repeat and come in
// any order; a nullary schema (no domains) yields True for any row and
// False for none. The result is referenced for the caller.
//
// The build is bottom-up instead of an OR per row: every row becomes a
// bit string in variable-level order, the strings are sorted, and the
// sorted run is split recursively at each level into the rows with a 0
// (low child) and the rows with a 1 (high child). Each node of the
// result is produced by one makeNode call, with no apply, no op-cache
// traffic and no intermediate garbage.
func (m *Manager) TupleSet(doms []*Domain, rows [][]uint64) Node {
	levels, src := tupleBits(doms)
	for _, row := range rows {
		if len(row) != len(doms) {
			panic(fmt.Sprintf("bdd: TupleSet row %v has %d values for %d domains", row, len(row), len(doms)))
		}
		for c, d := range doms {
			if row[c] >= d.Size {
				panic(fmt.Sprintf("bdd: value %d outside domain %s of size %d", row[c], d.Name, d.Size))
			}
		}
	}
	if len(rows) == 0 {
		return m.Ref(False)
	}
	if len(levels) == 0 {
		return m.Ref(True)
	}
	w := (len(levels) + 63) / 64
	keys := make([]uint64, len(rows)*w)
	for r, row := range rows {
		k := keys[r*w : (r+1)*w]
		for p, b := range src {
			if row[b.col]>>b.bit&1 != 0 {
				k[p>>6] |= 1 << (63 - uint(p&63))
			}
		}
	}
	t := tupleBuild{m: m, levels: levels, w: w, keys: sortDedupKeys(keys, w)}
	return m.Ref(t.build(0, len(t.keys)/w, 0))
}

// bitSource names the row column and bit that one variable level reads.
type bitSource struct {
	col int
	bit uint
}

// tupleBits lists every variable level of the domains in ascending
// order, with the column and bit each one encodes.
func tupleBits(doms []*Domain) ([]int32, []bitSource) {
	type entry struct {
		level int32
		src   bitSource
	}
	var all []entry
	for c, d := range doms {
		d.checkFinalized()
		for b, lv := range d.levels {
			all = append(all, entry{lv, bitSource{c, uint(b)}})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].level < all[j].level })
	levels := make([]int32, len(all))
	src := make([]bitSource, len(all))
	for i, e := range all {
		if i > 0 && all[i-1].level == e.level {
			panic(fmt.Sprintf("bdd: TupleSet domains overlap at level %d", e.level))
		}
		levels[i], src[i] = e.level, e.src
	}
	return levels, src
}

// sortDedupKeys sorts w-word keys lexicographically (most significant
// word first) and drops repeats, returning the packed result.
func sortDedupKeys(keys []uint64, w int) []uint64 {
	if w == 1 {
		slices.Sort(keys)
		return slices.Compact(keys)
	}
	n := len(keys) / w
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i * w
	}
	slices.SortFunc(idx, func(a, b int) int { return slices.Compare(keys[a:a+w], keys[b:b+w]) })
	out := make([]uint64, 0, len(keys))
	for _, i := range idx {
		k := keys[i : i+w]
		if len(out) > 0 && slices.Equal(out[len(out)-w:], k) {
			continue
		}
		out = append(out, k...)
	}
	return out
}

// tupleBuild holds one TupleSet build: keys packs the sorted,
// deduplicated rows, w words each, with level levels[p] at bit 63-p%64
// of word p/64, so lexicographic key order puts 0 before 1 at every
// level.
type tupleBuild struct {
	m      *Manager
	levels []int32
	w      int
	keys   []uint64
}

func (t *tupleBuild) bit(row, p int) bool {
	return t.keys[row*t.w+p>>6]>>(63-uint(p&63))&1 != 0
}

// build returns the set of rows [lo, hi), which is non-empty and whose
// rows agree on every level above p. Keys are distinct, so two or more
// rows always differ at p or below.
func (t *tupleBuild) build(lo, hi, p int) Node {
	t.m.control.Poll()
	if hi-lo == 1 {
		return t.chain(lo, p)
	}
	// The rows agree above p, so they are sorted by bit p: zeros first.
	a, b := lo, hi
	for a < b {
		mid := int(uint(a+b) >> 1)
		if t.bit(mid, p) {
			b = mid
		} else {
			a = mid + 1
		}
	}
	low, high := False, False
	if a > lo {
		low = t.build(lo, a, p+1)
	}
	if a < hi {
		high = t.build(a, hi, p+1)
	}
	return t.m.makeNode(t.levels[p], low, high)
}

// chain returns the single-row cube of row over levels p and below.
func (t *tupleBuild) chain(row, p int) Node {
	res := True
	for q := len(t.levels) - 1; q >= p; q-- {
		if t.bit(row, q) {
			res = t.m.makeNode(t.levels[q], False, res)
		} else {
			res = t.m.makeNode(t.levels[q], res, False)
		}
	}
	return res
}
