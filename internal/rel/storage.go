package rel

import (
	"fmt"
	"math/big"

	"bddbddb/internal/bdd"
)

// Backend identifies a tuple-storage implementation behind a Relation.
type Backend int

const (
	// BDD stores a relation as a canonical binary decision diagram over
	// the physical domains' variables — the paper's representation and
	// the default. It exploits the regularity of context-cloned
	// relations (Section 4) and is the only representation the serving
	// snapshots and checkpoints understand.
	BDD Backend = iota
	// Explicit stores a relation as sorted, deduplicated tuple rows in
	// the spirit of MDE's multi-level deduplication. It wins on small,
	// sparse, irregular relations (base facts, type filters) where the
	// BDD's node overhead dwarfs the data.
	Explicit
)

func (b Backend) String() string {
	switch b {
	case BDD:
		return "bdd"
	case Explicit:
		return "explicit"
	default:
		return fmt.Sprintf("Backend(%d)", int(b))
	}
}

// ParseBackend parses "bdd" or "explicit".
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "bdd":
		return BDD, nil
	case "explicit":
		return Explicit, nil
	default:
		return BDD, fmt.Errorf("rel: unknown backend %q (want bdd or explicit)", s)
	}
}

// BackendStats counts backend activity universe-wide: relational ops
// executed per backend, materialization bridges between representations
// (including the ones migrations perform), and whole-relation
// migrations via SetBackend.
type BackendStats struct {
	OpsBDD               int64
	OpsExplicit          int64
	BridgeToBDD          int64
	BridgeToExplicit     int64
	MigrationsToBDD      int64
	MigrationsToExplicit int64
}

// Storage is the op-level backend interface behind Relation: the method
// set the plan ops actually consume, minus all schema bookkeeping,
// which stays in the facade. The facade validates schemas, precomputes
// the per-backend op specs, and coerces the operand of every binary op
// to the receiver's kind before calling in — implementations may assume
// the operand is their own concrete type. Methods are unexported on
// purpose: backends live in this package; Relation is the public
// surface.
type Storage interface {
	kind() Backend
	clone() Storage
	free()
	isEmpty() bool
	size(attrs []Attr, support []int32) *big.Int
	addTuples(attrs []Attr, rows [][]uint64)
	iterate(attrs []Attr, support []int32, fn func(vals []uint64) bool)
	// toBDD and toExplicit always return a fresh storage the caller
	// owns, even when the receiver is already the requested kind.
	toBDD(attrs []Attr) *bddStore
	toExplicit(attrs []Attr, support []int32) *explicitStore

	// Binary ops: o has the receiver's kind; perm maps receiver
	// attribute positions to o's (perm[i] = o's column holding the
	// receiver's attribute i). unionWith mutates the receiver in place
	// and reports whether it grew.
	union(o Storage, perm []int) Storage
	unionWith(o Storage, perm []int) bool
	minus(o Storage, perm []int) Storage
	sameTuples(o Storage, perm []int) bool
	joinProject(o Storage, spec *joinSpec) Storage
	projectOut(spec *projSpec) Storage
	rebind(spec *rebindSpec) Storage
	selectEq(spec *selSpec) Storage
	selectEqualAttrs(spec *eqSpec) Storage
	complement(attrs []Attr) Storage
}

// srcCol names one output column of a join: a column index of the left
// (receiver) or right operand.
type srcCol struct {
	right bool
	col   int
}

// joinSpec carries both backends' precomputed join+project shape: the
// BDD levels to quantify away, and the explicit column wiring (shared
// column pairs joined on, plus the source of every kept output column
// in result-schema order).
type joinSpec struct {
	dropLevels []int32

	lArity, rArity int
	shared         [][2]int // (left col, right col)
	out            []srcCol
}

// projSpec is ProjectOut's shape: BDD levels dropped, explicit columns
// kept (in schema order).
type projSpec struct {
	dropLevels []int32
	keepCols   []int
}

// physMove is one physical-domain rebinding of Rename/Reshape. Explicit
// rows store logical values, so rebinding is metadata-only there.
type physMove struct {
	from, to *bdd.Domain
}

type rebindSpec struct {
	moves []physMove
}

// selSpec is SelectEq's shape.
type selSpec struct {
	phys *bdd.Domain
	col  int
	val  uint64
}

// eqSpec is SelectEqualAttrs' shape.
type eqSpec struct {
	p1, p2 *bdd.Domain
	c1, c2 int
}

// bddStore is the default backend: one referenced BDD root per
// relation. The bodies here are the pre-refactor Relation ops verbatim.
type bddStore struct {
	u    *Universe
	root bdd.Node
}

func newBDDStore(u *Universe, root bdd.Node) *bddStore {
	return &bddStore{u: u, root: root}
}

func (s *bddStore) kind() Backend { return BDD }

func (s *bddStore) clone() Storage { return newBDDStore(s.u, s.u.M.Ref(s.root)) }

func (s *bddStore) free() {
	s.u.M.Deref(s.root)
	s.root = bdd.False
}

func (s *bddStore) isEmpty() bool { return s.root == bdd.False }

func (s *bddStore) size(attrs []Attr, support []int32) *big.Int {
	return s.u.M.SatCountIn(s.root, support)
}

// rowsBDD builds the BDD holding exactly the given rows.
func rowsBDD(u *Universe, attrs []Attr, rows [][]uint64) bdd.Node {
	doms := make([]*bdd.Domain, len(attrs))
	for i, a := range attrs {
		doms[i] = a.Phys
	}
	return u.M.TupleSet(doms, rows)
}

func (s *bddStore) addTuples(attrs []Attr, rows [][]uint64) {
	m := s.u.M
	set := rowsBDD(s.u, attrs, rows)
	next := m.Or(s.root, set)
	m.Deref(s.root)
	m.Deref(set)
	s.root = next
}

func (s *bddStore) iterate(attrs []Attr, support []int32, fn func(vals []uint64) bool) {
	vals := make([]uint64, len(attrs))
	s.u.M.AllSat(s.root, support, func(bits []bool) bool {
		for i, a := range attrs {
			vals[i] = a.Phys.Value(support, bits)
		}
		return fn(vals)
	})
}

func (s *bddStore) toBDD(attrs []Attr) *bddStore {
	return newBDDStore(s.u, s.u.M.Ref(s.root))
}

func (s *bddStore) toExplicit(attrs []Attr, support []int32) *explicitStore {
	s.u.bstats.BridgeToExplicit++
	es := newExplicitStore(s.u, len(attrs))
	s.iterate(attrs, support, func(vals []uint64) bool {
		es.pend = append(es.pend, vals...)
		return true
	})
	es.norm()
	// Seed the memo with the root we already have: a relation that
	// migrates BDD→explicit and later feeds a mixed-backend op bridges
	// back for a reference bump instead of a cube-by-cube rebuild. The
	// memo drops on first mutation, so it never goes stale.
	es.bddMemo = s.u.M.Ref(s.root)
	es.memoOK = true
	return es
}

func (s *bddStore) union(o Storage, perm []int) Storage {
	return newBDDStore(s.u, s.u.M.Or(s.root, o.(*bddStore).root))
}

func (s *bddStore) unionWith(o Storage, perm []int) bool {
	m := s.u.M
	next := m.Or(s.root, o.(*bddStore).root)
	changed := next != s.root
	m.Deref(s.root)
	s.root = next
	return changed
}

func (s *bddStore) minus(o Storage, perm []int) Storage {
	return newBDDStore(s.u, s.u.M.Diff(s.root, o.(*bddStore).root))
}

func (s *bddStore) sameTuples(o Storage, perm []int) bool {
	// Constant time: BDDs are canonical.
	return s.root == o.(*bddStore).root
}

func (s *bddStore) joinProject(o Storage, spec *joinSpec) Storage {
	m := s.u.M
	ob := o.(*bddStore)
	if len(spec.dropLevels) == 0 {
		return newBDDStore(s.u, m.And(s.root, ob.root))
	}
	vs := m.MakeSet(spec.dropLevels)
	root := m.AndExist(s.root, ob.root, vs)
	m.Deref(vs)
	return newBDDStore(s.u, root)
}

func (s *bddStore) projectOut(spec *projSpec) Storage {
	m := s.u.M
	vs := m.MakeSet(spec.dropLevels)
	root := m.Exist(s.root, vs)
	m.Deref(vs)
	return newBDDStore(s.u, root)
}

func (s *bddStore) rebind(spec *rebindSpec) Storage {
	if len(spec.moves) == 0 {
		return s.clone()
	}
	m := s.u.M
	p := m.NewPair()
	for _, mv := range spec.moves {
		p.SetDomains(mv.from, mv.to)
	}
	return newBDDStore(s.u, m.Replace(s.root, p))
}

func (s *bddStore) selectEq(spec *selSpec) Storage {
	m := s.u.M
	eq := spec.phys.Eq(spec.val)
	root := m.And(s.root, eq)
	m.Deref(eq)
	return newBDDStore(s.u, root)
}

func (s *bddStore) selectEqualAttrs(spec *eqSpec) Storage {
	m := s.u.M
	eq, err := m.Equals(spec.p1, spec.p2)
	if err != nil {
		panic(fmt.Sprintf("rel: SelectEqualAttrs(%s,%s): %v", spec.p1.Name, spec.p2.Name, err))
	}
	root := m.And(s.root, eq)
	m.Deref(eq)
	return newBDDStore(s.u, root)
}

func (s *bddStore) complement(attrs []Attr) Storage {
	m := s.u.M
	root := m.Not(s.root)
	for _, a := range attrs {
		c := a.Phys.DomainConstraint()
		next := m.And(root, c)
		m.Deref(root)
		m.Deref(c)
		root = next
	}
	return newBDDStore(s.u, root)
}
