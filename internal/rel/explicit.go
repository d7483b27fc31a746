package rel

import (
	"encoding/binary"
	"math/big"
	"sort"

	"bddbddb/internal/bdd"
)

// explicitComplementVolume caps the schema volume (product of logical
// domain sizes) an explicit Complement will enumerate directly; larger
// schemas bridge through the BDD backend, which negates in time
// proportional to the BDD, not the volume.
const explicitComplementVolume = 1 << 20

// explicitJoinFallbackRows caps how many result rows an explicit join
// will materialize. Dense rule outputs (the type-filter product is the
// canonical case) cost rows in explicit storage but only nodes as
// BDDs; when a join overflows the cap the facade re-runs it on BDD
// operands instead. A var so tests can lower it.
var explicitJoinFallbackRows = 1 << 15

// explicitStore holds a relation as flat row-major logical values:
// rows is lex-sorted and deduplicated, arity values per tuple. Writers
// stage into pend; readers normalize first (sort + merge + dedup —
// MDE-style multi-level deduplication, amortized over batches of
// AddTuple). Clones share the normalized rows slice; every mutation
// replaces slices rather than writing through, so sharing is safe.
type explicitStore struct {
	u     *Universe
	arity int
	rows  []uint64
	pend  []uint64

	// bddMemo caches the last toBDD materialization (one owned
	// reference) so the per-iteration bridges of a mixed-backend join
	// cost a reference bump after the first. Invalidated on mutation;
	// not shared by clones.
	bddMemo bdd.Node
	memoOK  bool
}

func (s *explicitStore) dropMemo() {
	if s.memoOK {
		s.u.M.Deref(s.bddMemo)
		s.memoOK = false
	}
}

func newExplicitStore(u *Universe, arity int) *explicitStore {
	if arity == 0 {
		panic("rel: explicit storage cannot hold nullary relations")
	}
	return &explicitStore{u: u, arity: arity}
}

// norm folds pend into rows, restoring the sorted/deduplicated
// invariant: sort the staged batch, then merge it with the already
// sorted rows (MDE-style multi-level deduplication).
func (s *explicitStore) norm() {
	if len(s.pend) == 0 {
		return
	}
	batch := sortDedupRows(s.pend, s.arity)
	s.rows = mergeRows(s.rows, batch, s.arity)
	s.pend = nil
}

// mergeRows merges two sorted deduplicated flat row sets into a fresh
// sorted deduplicated one in linear time.
func mergeRows(a, b []uint64, k int) []uint64 {
	if len(a) == 0 {
		return append([]uint64(nil), b...)
	}
	if len(b) == 0 {
		return append([]uint64(nil), a...)
	}
	out := make([]uint64, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch compareRows(a[i:i+k], b[j:j+k]) {
		case -1:
			out = append(out, a[i:i+k]...)
			i += k
		case 1:
			out = append(out, b[j:j+k]...)
			j += k
		default:
			out = append(out, a[i:i+k]...)
			i += k
			j += k
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// sortDedupRows sorts flat (k values per row) lexicographically and
// drops duplicate rows. It returns a freshly packed slice.
func sortDedupRows(flat []uint64, k int) []uint64 {
	n := len(flat) / k
	if n <= 1 {
		return flat
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i * k
	}
	sort.Slice(idx, func(a, b int) bool {
		return compareRows(flat[idx[a]:idx[a]+k], flat[idx[b]:idx[b]+k]) < 0
	})
	out := make([]uint64, 0, len(flat))
	for i, start := range idx {
		row := flat[start : start+k]
		if i > 0 {
			prev := out[len(out)-k:]
			if compareRows(prev, row) == 0 {
				continue
			}
		}
		out = append(out, row...)
	}
	return out
}

func compareRows(a, b []uint64) int {
	for i := range a {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	return 0
}

func isIdentityPerm(perm []int) bool {
	for i, p := range perm {
		if p != i {
			return false
		}
	}
	return true
}

// permutedRows returns o's rows with columns rearranged into the
// receiver's attribute order and re-sorted. Identity permutations
// share o's slice.
func permutedRows(rows []uint64, k int, perm []int) []uint64 {
	if isIdentityPerm(perm) {
		return rows
	}
	flat := make([]uint64, len(rows))
	for i := 0; i+k <= len(rows); i += k {
		for c, p := range perm {
			flat[i+c] = rows[i+p]
		}
	}
	return sortDedupRows(flat, k)
}

func (s *explicitStore) kind() Backend { return Explicit }

func (s *explicitStore) clone() Storage {
	s.norm()
	return &explicitStore{u: s.u, arity: s.arity, rows: s.rows}
}

func (s *explicitStore) free() {
	s.dropMemo()
	s.rows = nil
	s.pend = nil
}

func (s *explicitStore) isEmpty() bool {
	// pend rows may duplicate existing ones, but a non-empty pend
	// implies a non-empty relation either way.
	return len(s.rows) == 0 && len(s.pend) == 0
}

func (s *explicitStore) size(attrs []Attr, support []int32) *big.Int {
	s.norm()
	return big.NewInt(int64(len(s.rows) / s.arity))
}

func (s *explicitStore) addTuples(attrs []Attr, rows [][]uint64) {
	s.dropMemo()
	for _, vals := range rows {
		s.pend = append(s.pend, vals...)
	}
}

func (s *explicitStore) iterate(attrs []Attr, support []int32, fn func(vals []uint64) bool) {
	s.norm()
	k := s.arity
	for i := 0; i+k <= len(s.rows); i += k {
		if !fn(s.rows[i : i+k]) {
			return
		}
	}
}

func (s *explicitStore) toBDD(attrs []Attr) *bddStore {
	m := s.u.M
	if s.memoOK {
		return newBDDStore(s.u, m.Ref(s.bddMemo))
	}
	s.u.bstats.BridgeToBDD++
	s.norm()
	k := s.arity
	rows := make([][]uint64, 0, len(s.rows)/k)
	for i := 0; i+k <= len(s.rows); i += k {
		rows = append(rows, s.rows[i:i+k])
	}
	root := rowsBDD(s.u, attrs, rows)
	s.bddMemo = m.Ref(root)
	s.memoOK = true
	return newBDDStore(s.u, root)
}

func (s *explicitStore) toExplicit(attrs []Attr, support []int32) *explicitStore {
	return s.clone().(*explicitStore)
}

func (s *explicitStore) union(o Storage, perm []int) Storage {
	oe := o.(*explicitStore)
	s.norm()
	oe.norm()
	k := s.arity
	rows := mergeRows(s.rows, permutedRows(oe.rows, k, perm), k)
	return &explicitStore{u: s.u, arity: k, rows: rows}
}

func (s *explicitStore) unionWith(o Storage, perm []int) bool {
	oe := o.(*explicitStore)
	s.dropMemo()
	s.norm()
	oe.norm()
	before := len(s.rows)
	k := s.arity
	s.rows = mergeRows(s.rows, permutedRows(oe.rows, k, perm), k)
	return len(s.rows) != before
}

func (s *explicitStore) minus(o Storage, perm []int) Storage {
	oe := o.(*explicitStore)
	s.norm()
	oe.norm()
	k := s.arity
	op := permutedRows(oe.rows, k, perm)
	out := make([]uint64, 0, len(s.rows))
	i, j := 0, 0
	for i < len(s.rows) {
		if j >= len(op) {
			out = append(out, s.rows[i:]...)
			break
		}
		switch compareRows(s.rows[i:i+k], op[j:j+k]) {
		case -1:
			out = append(out, s.rows[i:i+k]...)
			i += k
		case 1:
			j += k
		default:
			i += k
			j += k
		}
	}
	return &explicitStore{u: s.u, arity: k, rows: out}
}

func (s *explicitStore) sameTuples(o Storage, perm []int) bool {
	oe := o.(*explicitStore)
	s.norm()
	oe.norm()
	op := permutedRows(oe.rows, s.arity, perm)
	if len(s.rows) != len(op) {
		return false
	}
	for i := range s.rows {
		if s.rows[i] != op[i] {
			return false
		}
	}
	return true
}

func (s *explicitStore) joinProject(o Storage, spec *joinSpec) Storage {
	oe := o.(*explicitStore)
	s.norm()
	oe.norm()
	lk, rk := spec.lArity, spec.rArity
	outK := len(spec.out)

	lcols := make([]int, len(spec.shared))
	rcols := make([]int, len(spec.shared))
	for i, p := range spec.shared {
		lcols[i], rcols[i] = p[0], p[1]
	}
	// Hash join, building the index on the smaller operand and probing
	// with the larger: in semi-naive iteration the small side is
	// usually the delta, so the per-call map build touches a handful of
	// rows while the hoisted base is only probed.
	bRows, bK, bCols := s.rows, lk, lcols
	pRows, pK, pCols := oe.rows, rk, rcols
	buildLeft := true
	if len(oe.rows)/rk < len(s.rows)/lk {
		bRows, bK, bCols = oe.rows, rk, rcols
		pRows, pK, pCols = s.rows, lk, lcols
		buildLeft = false
	}
	outRow := make([]uint64, outK)
	var flat []uint64
	limit := explicitJoinFallbackRows * outK
	aborted := false
	emit := func(lrow, rrow []uint64) {
		for c, sc := range spec.out {
			if sc.right {
				outRow[c] = rrow[sc.col]
			} else {
				outRow[c] = lrow[sc.col]
			}
		}
		flat = append(flat, outRow...)
		if len(flat) > limit {
			aborted = true
		}
	}
	match := func(brow, prow []uint64) {
		if buildLeft {
			emit(brow, prow)
		} else {
			emit(prow, brow)
		}
	}
	if len(bCols) == 1 {
		// Single shared attribute — the common case — joins through an
		// allocation-free uint64-keyed index.
		bc, pc := bCols[0], pCols[0]
		idx := make(map[uint64][]int, len(bRows)/bK)
		for j := 0; j+bK <= len(bRows); j += bK {
			k := bRows[j+bc]
			idx[k] = append(idx[k], j)
		}
		for i := 0; i+pK <= len(pRows) && !aborted; i += pK {
			for _, j := range idx[pRows[i+pc]] {
				match(bRows[j:j+bK], pRows[i:i+pK])
			}
		}
	} else {
		var buf []byte
		enc := func(row []uint64, cols []int) string {
			buf = buf[:0]
			for _, c := range cols {
				buf = binary.LittleEndian.AppendUint64(buf, row[c])
			}
			return string(buf)
		}
		idx := make(map[string][]int, len(bRows)/bK)
		for j := 0; j+bK <= len(bRows); j += bK {
			key := enc(bRows[j:j+bK], bCols)
			idx[key] = append(idx[key], j)
		}
		for i := 0; i+pK <= len(pRows) && !aborted; i += pK {
			for _, j := range idx[enc(pRows[i:i+pK], pCols)] {
				match(bRows[j:j+bK], pRows[i:i+pK])
			}
		}
	}
	if aborted {
		return nil // overflowed the fallback cap; caller re-runs on BDDs
	}
	return &explicitStore{u: s.u, arity: outK, rows: sortDedupRows(flat, outK)}
}

func (s *explicitStore) projectOut(spec *projSpec) Storage {
	s.norm()
	k := s.arity
	nk := len(spec.keepCols)
	flat := make([]uint64, 0, len(s.rows)/k*nk)
	for i := 0; i+k <= len(s.rows); i += k {
		row := s.rows[i : i+k]
		for _, c := range spec.keepCols {
			flat = append(flat, row[c])
		}
	}
	return &explicitStore{u: s.u, arity: nk, rows: sortDedupRows(flat, nk)}
}

func (s *explicitStore) rebind(spec *rebindSpec) Storage {
	// Rows hold logical values; moving attributes between physical
	// instances changes only BDD-side metadata.
	return s.clone()
}

func (s *explicitStore) selectEq(spec *selSpec) Storage {
	s.norm()
	k := s.arity
	var flat []uint64
	for i := 0; i+k <= len(s.rows); i += k {
		if s.rows[i+spec.col] == spec.val {
			flat = append(flat, s.rows[i:i+k]...)
		}
	}
	// Filtering a sorted deduplicated run preserves the invariant.
	return &explicitStore{u: s.u, arity: k, rows: flat}
}

func (s *explicitStore) selectEqualAttrs(spec *eqSpec) Storage {
	s.norm()
	k := s.arity
	var flat []uint64
	for i := 0; i+k <= len(s.rows); i += k {
		if s.rows[i+spec.c1] == s.rows[i+spec.c2] {
			flat = append(flat, s.rows[i:i+k]...)
		}
	}
	return &explicitStore{u: s.u, arity: k, rows: flat}
}

func (s *explicitStore) complement(attrs []Attr) Storage {
	vol := uint64(1)
	for _, a := range attrs {
		if a.Dom.Size == 0 || vol > explicitComplementVolume/a.Dom.Size {
			// Too large to enumerate (or would overflow): negate in the
			// BDD backend instead. Exact semantics either way; only the
			// result's representation differs.
			b := s.toBDD(attrs)
			res := b.complement(attrs)
			b.free()
			return res
		}
		vol *= a.Dom.Size
	}
	s.norm()
	k := s.arity
	sizes := make([]uint64, k)
	for i, a := range attrs {
		sizes[i] = a.Dom.Size
	}
	out := make([]uint64, 0, int(vol)*k-len(s.rows))
	vals := make([]uint64, k)
	cur := 0
	for {
		if cur < len(s.rows) && compareRows(s.rows[cur:cur+k], vals) == 0 {
			cur += k
		} else {
			out = append(out, vals...)
		}
		i := k - 1
		for ; i >= 0; i-- {
			vals[i]++
			if vals[i] < sizes[i] {
				break
			}
			vals[i] = 0
		}
		if i < 0 {
			break
		}
	}
	// The odometer walks the schema volume in lex order, so out is
	// already sorted and duplicate-free.
	return &explicitStore{u: s.u, arity: k, rows: out}
}
