package rel

import (
	"fmt"
	"math/big"
	"sort"
	"strings"

	"bddbddb/internal/bdd"
)

// Attr binds an attribute name to a logical domain and the physical
// instance holding its bits.
type Attr struct {
	Name string
	Dom  *LogicalDomain
	Phys *bdd.Domain
}

// A returns an attribute of the named logical domain bound to physical
// instance inst.
func (u *Universe) A(attrName, domName string, inst int) Attr {
	d := u.logical[domName]
	if d == nil {
		panic(fmt.Sprintf("rel: unknown domain %q", domName))
	}
	return Attr{Name: attrName, Dom: d, Phys: u.Phys(domName, inst)}
}

// Relation is a set of tuples over named attributes — a thin
// schema-carrying facade over a Storage backend (BDD by default,
// explicit rows via SetBackend). The facade validates schemas, owns
// the mixed-backend coercion policy, and keeps a per-universe
// modification stamp so caches can revalidate without relying on BDD
// root canonicity. All deriving operations keep their backing storage
// referenced; call Free when a relation is no longer needed.
type Relation struct {
	u      *Universe
	Name   string
	attrs  []Attr
	store  Storage
	frozen bool

	// stamp is bumped (from the universe's monotone counter) on every
	// content mutation; (pointer, stamp) identifies a relation state.
	stamp uint64
	// support caches supportVars(): the sorted BDD levels of all
	// attributes. Attrs never change after construction.
	support []int32
}

// explicitPromoteRows caps how many rows an explicit relation may hold:
// mutating past it promotes the relation back to BDD storage. This is
// the safety valve that keeps forced-explicit configs from
// materializing context-cloned relations (10^10+ tuples) row by row.
var explicitPromoteRows = big.NewInt(1 << 20)

func newRel(u *Universe, name string, attrs []Attr, st Storage) *Relation {
	return &Relation{u: u, Name: name, attrs: attrs, store: st, stamp: u.nextStamp()}
}

// NewRelation creates an empty relation. Attribute names must be unique
// and no two attributes may share a physical domain.
func (u *Universe) NewRelation(name string, attrs ...Attr) *Relation {
	if !u.final {
		panic("rel: NewRelation before Finalize")
	}
	checkAttrs(name, attrs)
	return newRel(u, name, append([]Attr(nil), attrs...), newBDDStore(u, u.M.Ref(bdd.False)))
}

// NewRelationFromBDD wraps an already-referenced BDD node as a relation;
// the relation takes ownership of the caller's reference.
func (u *Universe) NewRelationFromBDD(name string, root bdd.Node, attrs ...Attr) *Relation {
	checkAttrs(name, attrs)
	return newRel(u, name, append([]Attr(nil), attrs...), newBDDStore(u, root))
}

func checkAttrs(name string, attrs []Attr) {
	seenName := make(map[string]bool)
	seenPhys := make(map[*bdd.Domain]string)
	for _, a := range attrs {
		if a.Phys == nil || a.Dom == nil {
			panic(fmt.Sprintf("rel: relation %s has incomplete attribute %q", name, a.Name))
		}
		if seenName[a.Name] {
			panic(fmt.Sprintf("rel: relation %s repeats attribute %q", name, a.Name))
		}
		seenName[a.Name] = true
		if prev, ok := seenPhys[a.Phys]; ok {
			panic(fmt.Sprintf("rel: relation %s binds attributes %q and %q to one physical domain %s",
				name, prev, a.Name, a.Phys.Name))
		}
		seenPhys[a.Phys] = a.Name
	}
}

// Attrs returns the relation's attributes.
func (r *Relation) Attrs() []Attr { return r.attrs }

// Attr returns the attribute with the given name.
func (r *Relation) Attr(name string) Attr {
	for _, a := range r.attrs {
		if a.Name == name {
			return a
		}
	}
	panic(fmt.Sprintf("rel: relation %s has no attribute %q (has %s)", r.Name, name, r.attrNames()))
}

// HasAttr reports whether the relation has an attribute with the name.
func (r *Relation) HasAttr(name string) bool {
	return attrIndex(r.attrs, name) >= 0
}

func attrIndex(attrs []Attr, name string) int {
	for i, a := range attrs {
		if a.Name == name {
			return i
		}
	}
	return -1
}

func (r *Relation) attrNames() string {
	names := make([]string, len(r.attrs))
	for i, a := range r.attrs {
		names[i] = a.Name
	}
	return strings.Join(names, ",")
}

// Backend reports which storage backend currently holds the tuples.
func (r *Relation) Backend() Backend { return r.store.kind() }

// Stamp returns the relation's modification stamp. Stamps come from a
// per-universe monotone counter: a (relation pointer, stamp) pair seen
// equal later proves the content is unchanged, because every mutation
// bumps the stamp and counters are never reused. Backend migrations do
// NOT bump the stamp — they change representation, not content.
func (r *Relation) Stamp() uint64 { return r.stamp }

func (r *Relation) touch() { r.stamp = r.u.nextStamp() }

// SetBackend converts the relation's tuple storage in place and
// reports whether a conversion happened. Frozen relations (pinned to
// BDD for the serving layer) and nullary schemas never migrate.
func (r *Relation) SetBackend(b Backend) bool {
	if r.frozen || len(r.attrs) == 0 || r.store.kind() == b {
		return false
	}
	var ns Storage
	switch b {
	case BDD:
		ns = r.store.toBDD(r.attrs)
		r.u.bstats.MigrationsToBDD++
	case Explicit:
		ns = r.store.toExplicit(r.attrs, r.supportVars())
		r.u.bstats.MigrationsToExplicit++
	default:
		panic(fmt.Sprintf("rel: SetBackend(%v)", b))
	}
	r.store.free()
	r.store = ns
	return true
}

// Root exposes the underlying BDD node (still owned by the relation).
// It panics for explicit-backed relations; use BDDRoot to materialize.
func (r *Relation) Root() bdd.Node {
	bs, ok := r.store.(*bddStore)
	if !ok {
		panic(fmt.Sprintf("rel: Root of %s: stored in %s backend (use BDDRoot)", r.Name, r.store.kind()))
	}
	return bs.root
}

// BDDRoot returns the relation's tuples as a BDD root plus a release
// function. BDD-backed relations return their live root (still owned
// by the relation) with a no-op release; explicit-backed relations
// materialize a temporary that the release frees. Checkpointing uses
// this to dump mixed-backend solver state as plain BDD DAGs.
func (r *Relation) BDDRoot() (bdd.Node, func()) {
	if bs, ok := r.store.(*bddStore); ok {
		return bs.root, func() {}
	}
	t := r.store.toBDD(r.attrs)
	return t.root, func() { t.free() }
}

// Freeze marks the relation immutable: AddTuple, UnionWith, and Free
// panic afterwards. Deriving operations (Join, SelectEq, ...) stay
// legal — they allocate new relations and never touch the receiver.
// The serving layer freezes solved relations before handing them to
// concurrent query evaluation and snapshots them by BDD root, so
// Freeze first pins the relation to the BDD backend; frozen relations
// never migrate. There is no Unfreeze.
func (r *Relation) Freeze() {
	if r.store.kind() != BDD {
		r.SetBackend(BDD)
	}
	r.frozen = true
}

// Frozen reports whether Freeze was called.
func (r *Relation) Frozen() bool { return r.frozen }

func (r *Relation) requireMutable(op string) {
	if r.frozen {
		panic(fmt.Sprintf("rel: %s on frozen relation %s", op, r.Name))
	}
}

// Free releases the relation's storage. The relation must not be used
// afterwards.
func (r *Relation) Free() {
	r.requireMutable("Free")
	r.store.free()
	r.attrs = nil
	r.support = nil
}

// Clone returns an independent copy sharing the same tuples.
func (r *Relation) Clone(name string) *Relation {
	c := newRel(r.u, name, append([]Attr(nil), r.attrs...), r.store.clone())
	c.support = r.support
	return c
}

// coerced returns r's tuple storage in kind b plus a release function
// for any temporary the bridge materialized. Same-kind calls borrow
// the live storage with a no-op release.
func (r *Relation) coerced(b Backend) (Storage, func()) {
	if r.store.kind() == b {
		return r.store, func() {}
	}
	var t Storage
	if b == BDD {
		t = r.store.toBDD(r.attrs)
	} else {
		t = r.store.toExplicit(r.attrs, r.supportVars())
	}
	return t, t.free
}

// binKind picks the backend a mixed binary op runs on: both-explicit
// stays explicit, otherwise BDD. The adaptive selection keeps explicit
// relations small, so the explicit side is always the cheap one to
// bridge.
func binKind(r, o *Relation) Backend {
	if r.store.kind() == Explicit && o.store.kind() == Explicit {
		return Explicit
	}
	return BDD
}

// permOf maps a's attribute positions to b's: perm[i] is the index in
// b of a[i]'s attribute. Schemas must already be validated equal.
func permOf(a, b []Attr) []int {
	perm := make([]int, len(a))
	for i := range a {
		perm[i] = attrIndex(b, a[i].Name)
	}
	return perm
}

// AddTuple inserts one tuple, with values listed in attribute order.
func (r *Relation) AddTuple(vals ...uint64) { r.AddTuples([][]uint64{vals}) }

// AddTuples inserts every row, each with values listed in attribute
// order. Rows may repeat and come in any order. The whole batch is
// checked before any row is inserted, with the same panics as
// AddTuple, and a BDD-backed relation builds the batch bottom-up in one
// pass (bdd.Manager.TupleSet) rather than with one OR per row.
func (r *Relation) AddTuples(rows [][]uint64) {
	r.requireMutable("AddTuple")
	for _, vals := range rows {
		if len(vals) != len(r.attrs) {
			panic(fmt.Sprintf("rel: AddTuple(%v) into %s(%s)", vals, r.Name, r.attrNames()))
		}
		for i, a := range r.attrs {
			if vals[i] >= a.Dom.Size {
				panic(fmt.Sprintf("rel: value %d exceeds domain %s (size %d) in %s.%s",
					vals[i], a.Dom.Name, a.Dom.Size, r.Name, a.Name))
			}
		}
	}
	if len(rows) == 0 {
		return
	}
	r.store.addTuples(r.attrs, rows)
	r.touch()
}

func (r *Relation) sameSchema(o *Relation) bool {
	if len(r.attrs) != len(o.attrs) {
		return false
	}
	for _, a := range r.attrs {
		j := attrIndex(o.attrs, a.Name)
		if j < 0 || o.attrs[j].Phys != a.Phys {
			return false
		}
	}
	return true
}

func (r *Relation) requireSameSchema(o *Relation, op string) {
	if !r.sameSchema(o) {
		panic(fmt.Sprintf("rel: %s of %s(%s) and %s(%s): schemas differ",
			op, r.Name, r.attrNames(), o.Name, o.attrNames()))
	}
}

// UnionWith adds all of o's tuples to r in place and reports whether r
// changed.
func (r *Relation) UnionWith(o *Relation) bool {
	r.requireMutable("UnionWith")
	r.requireSameSchema(o, "union")
	if o.store.isEmpty() {
		return false
	}
	if r.store.kind() == Explicit {
		// Growth valve: rather than materialize a huge operand into
		// rows, promote the receiver back to BDD past the cap.
		n := new(big.Int).Add(r.Size(), o.Size())
		if n.Cmp(explicitPromoteRows) > 0 {
			r.SetBackend(BDD)
		}
	}
	k := r.store.kind()
	os, release := o.coerced(k)
	changed := r.store.unionWith(os, permOf(r.attrs, o.attrs))
	release()
	r.u.noteOp(k)
	if changed {
		r.touch()
	}
	return changed
}

// Union returns a new relation with the tuples of both operands.
func (r *Relation) Union(name string, o *Relation) *Relation {
	r.requireSameSchema(o, "union")
	if o.store.isEmpty() {
		return r.Clone(name)
	}
	k := binKind(r, o)
	rs, rrel := r.coerced(k)
	os, orel := o.coerced(k)
	st := rs.union(os, permOf(r.attrs, o.attrs))
	rrel()
	orel()
	r.u.noteOp(k)
	return newRel(r.u, name, append([]Attr(nil), r.attrs...), st)
}

// Minus returns the tuples of r that are not in o.
func (r *Relation) Minus(name string, o *Relation) *Relation {
	r.requireSameSchema(o, "difference")
	// Empty operands make the result r itself (or empty, which a clone
	// of empty r also is) — skip the cross-backend coercion a mixed
	// pair would otherwise pay. Empty rule results against large heads
	// are the common case in converging fixpoint iterations.
	if r.store.isEmpty() || o.store.isEmpty() {
		c := r.Clone(name)
		return c
	}
	k := binKind(r, o)
	rs, rrel := r.coerced(k)
	os, orel := o.coerced(k)
	st := rs.minus(os, permOf(r.attrs, o.attrs))
	rrel()
	orel()
	r.u.noteOp(k)
	return newRel(r.u, name, append([]Attr(nil), r.attrs...), st)
}

// joinAttrs computes the result schema of a natural join and validates
// physical alignment: shared attribute names must share a physical
// domain; attributes private to one side must not collide physically.
func joinAttrs(a, b *Relation, op string) (shared []string, result []Attr) {
	result = append(result, a.attrs...)
	for _, battr := range b.attrs {
		if a.HasAttr(battr.Name) {
			aattr := a.Attr(battr.Name)
			if aattr.Phys != battr.Phys {
				panic(fmt.Sprintf("rel: %s of %s and %s: attribute %q on %s vs %s (rename first)",
					op, a.Name, b.Name, battr.Name, aattr.Phys.Name, battr.Phys.Name))
			}
			shared = append(shared, battr.Name)
			continue
		}
		for _, aattr := range a.attrs {
			if aattr.Phys == battr.Phys {
				panic(fmt.Sprintf("rel: %s of %s and %s: attributes %q and %q collide on %s",
					op, a.Name, b.Name, aattr.Name, battr.Name, battr.Phys.Name))
			}
		}
		result = append(result, battr)
	}
	return shared, result
}

// Join returns the natural join of r and o on their shared attribute
// names.
func (r *Relation) Join(name string, o *Relation) *Relation {
	return r.joinProjectOp(name, o, nil)
}

// JoinProject joins r and o and projects away the named attributes in
// one pass (a BDD relprod, or an explicit hash join) — the workhorse
// of rule application.
func (r *Relation) JoinProject(name string, o *Relation, drop ...string) *Relation {
	return r.joinProjectOp(name, o, drop)
}

func (r *Relation) joinProjectOp(name string, o *Relation, drop []string) *Relation {
	_, attrs := joinAttrs(r, o, "join")
	for _, d := range drop {
		if attrIndex(attrs, d) < 0 {
			panic(fmt.Sprintf("rel: JoinProject drops unknown attribute %q", d))
		}
	}
	spec := &joinSpec{lArity: len(r.attrs), rArity: len(o.attrs)}
	var keep []Attr
	for pos, a := range attrs {
		dropped := false
		for _, d := range drop {
			if a.Name == d {
				dropped = true
				break
			}
		}
		if dropped {
			spec.dropLevels = append(spec.dropLevels, a.Phys.Levels()...)
			continue
		}
		keep = append(keep, a)
		if pos < len(r.attrs) {
			spec.out = append(spec.out, srcCol{col: pos})
		} else {
			spec.out = append(spec.out, srcCol{right: true, col: attrIndex(o.attrs, a.Name)})
		}
	}
	for j, b := range o.attrs {
		if i := attrIndex(r.attrs, b.Name); i >= 0 {
			spec.shared = append(spec.shared, [2]int{i, j})
		}
	}
	k := binKind(r, o)
	if len(keep) == 0 {
		k = BDD // nullary results stay BDD-backed
	}
	rs, rrel := r.coerced(k)
	os, orel := o.coerced(k)
	st := rs.joinProject(os, spec)
	if st == nil {
		// The explicit join overflowed explicitJoinFallbackRows: the
		// result is dense enough that rows are the wrong shape for it.
		// Re-run on BDD operands — the operands themselves are small
		// (they fit explicit storage), only the product is big.
		rrel()
		orel()
		k = BDD
		rs, rrel = r.coerced(k)
		os, orel = o.coerced(k)
		st = rs.joinProject(os, spec)
	}
	rrel()
	orel()
	r.u.noteOp(k)
	return newRel(r.u, name, keep, st)
}

// ProjectOut removes the named attributes (existential quantification).
func (r *Relation) ProjectOut(name string, drop ...string) *Relation {
	for _, d := range drop {
		if !r.HasAttr(d) {
			panic(fmt.Sprintf("rel: ProjectOut of unknown attribute %q from %s", d, r.Name))
		}
	}
	var keep []Attr
	spec := &projSpec{}
	for i, a := range r.attrs {
		dropped := false
		for _, d := range drop {
			if a.Name == d {
				dropped = true
				break
			}
		}
		if dropped {
			spec.dropLevels = append(spec.dropLevels, a.Phys.Levels()...)
		} else {
			keep = append(keep, a)
			spec.keepCols = append(spec.keepCols, i)
		}
	}
	k := r.store.kind()
	if len(keep) == 0 {
		k = BDD // nullary results stay BDD-backed
	}
	rs, rrel := r.coerced(k)
	st := rs.projectOut(spec)
	rrel()
	r.u.noteOp(k)
	return newRel(r.u, name, keep, st)
}

// Rename returns r with some attributes rebound to different physical
// instances (one BDD replace; metadata-only for explicit rows). The
// map keys are attribute names.
func (r *Relation) Rename(name string, moves map[string]*bdd.Domain) *Relation {
	for n := range moves {
		if !r.HasAttr(n) {
			panic(fmt.Sprintf("rel: Rename of unknown attribute %q in %s", n, r.Name))
		}
	}
	attrs := append([]Attr(nil), r.attrs...)
	spec := &rebindSpec{}
	for i := range attrs {
		to, ok := moves[attrs[i].Name]
		if !ok || to == attrs[i].Phys {
			continue
		}
		spec.moves = append(spec.moves, physMove{from: attrs[i].Phys, to: to})
		attrs[i].Phys = to
	}
	checkAttrs(name, attrs)
	st := r.store.rebind(spec)
	r.u.noteOp(r.store.kind())
	return newRel(r.u, name, attrs, st)
}

// RenameAttr returns r with one attribute renamed (metadata only; the
// tuples and physical binding are unchanged).
func (r *Relation) RenameAttr(name, oldAttr, newAttr string) *Relation {
	attrs := append([]Attr(nil), r.attrs...)
	found := false
	for i := range attrs {
		if attrs[i].Name == oldAttr {
			attrs[i].Name = newAttr
			found = true
		}
	}
	if !found {
		panic(fmt.Sprintf("rel: RenameAttr of unknown attribute %q in %s", oldAttr, r.Name))
	}
	checkAttrs(name, attrs)
	c := newRel(r.u, name, attrs, r.store.clone())
	c.support = r.support
	return c
}

// SelectEq returns the tuples whose attribute equals val (attribute
// retained; ProjectOut to drop it).
func (r *Relation) SelectEq(name, attr string, val uint64) *Relation {
	i := attrIndex(r.attrs, attr)
	if i < 0 {
		panic(fmt.Sprintf("rel: relation %s has no attribute %q (has %s)", r.Name, attr, r.attrNames()))
	}
	a := r.attrs[i]
	if val >= a.Dom.Size {
		panic(fmt.Sprintf("rel: SelectEq value %d outside domain %s", val, a.Dom.Name))
	}
	st := r.store.selectEq(&selSpec{phys: a.Phys, col: i, val: val})
	r.u.noteOp(r.store.kind())
	c := newRel(r.u, name, append([]Attr(nil), r.attrs...), st)
	c.support = r.support
	return c
}

// Complement returns the tuples over the attributes' domains that are
// NOT in r — negation relative to the finite universe of the schema,
// used by stratified Datalog negation. Explicit-backed relations with
// a schema volume past the enumeration cap negate through the BDD
// backend, so the result's backend may differ from the receiver's.
func (r *Relation) Complement(name string) *Relation {
	st := r.store.complement(r.attrs)
	r.u.noteOp(st.kind())
	c := newRel(r.u, name, append([]Attr(nil), r.attrs...), st)
	c.support = r.support
	return c
}

// SameSchemaAs reports whether both relations bind the same attribute
// names to the same physical domains (tuple order notwithstanding).
func (r *Relation) SameSchemaAs(o *Relation) bool { return r.sameSchema(o) }

// IsEmpty reports whether the relation has no tuples.
func (r *Relation) IsEmpty() bool { return r.store.isEmpty() }

// SameTuples reports whether two relations over the same schema hold
// exactly the same tuples (constant time when both are BDD-backed:
// BDDs are canonical).
func (r *Relation) SameTuples(o *Relation) bool {
	r.requireSameSchema(o, "comparison")
	k := binKind(r, o)
	rs, rrel := r.coerced(k)
	os, orel := o.coerced(k)
	eq := rs.sameTuples(os, permOf(r.attrs, o.attrs))
	rrel()
	orel()
	return eq
}

// Size returns the exact tuple count.
func (r *Relation) Size() *big.Int {
	if len(r.attrs) == 0 {
		if r.store.(*bddStore).root == bdd.True {
			return big.NewInt(1)
		}
		return big.NewInt(0)
	}
	return r.store.size(r.attrs, r.supportVars())
}

// SizeFloat returns the tuple count as a float64 — the lossy form the
// Datalog planner's cost model consumes. Use Size for exact counts.
func (r *Relation) SizeFloat() float64 {
	f, _ := new(big.Float).SetInt(r.Size()).Float64()
	return f
}

func (r *Relation) supportVars() []int32 {
	if r.support == nil {
		var vars []int32
		for _, a := range r.attrs {
			vars = append(vars, a.Phys.Levels()...)
		}
		sort.Slice(vars, func(i, j int) bool { return vars[i] < vars[j] })
		r.support = vars
	}
	return r.support
}

// Iterate calls fn for every tuple (values in attribute order) until it
// returns false. Enumeration order is deterministic per backend (BDD
// variable order for BDD storage, lexicographic for explicit rows).
func (r *Relation) Iterate(fn func(vals []uint64) bool) {
	if len(r.attrs) == 0 {
		if r.store.(*bddStore).root == bdd.True {
			fn(nil)
		}
		return
	}
	r.store.iterate(r.attrs, r.supportVars(), fn)
}

// Tuples materializes the relation as a slice (tests and small outputs
// only; context-sensitive relations can hold 10^14 tuples).
func (r *Relation) Tuples() [][]uint64 {
	var out [][]uint64
	r.Iterate(func(vals []uint64) bool {
		out = append(out, append([]uint64(nil), vals...))
		return true
	})
	// Iterate yields representation order (BDD variable order vs sorted
	// rows); sort so dumps and APIs read identically across backends.
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return out
}

// String renders the schema, for diagnostics.
func (r *Relation) String() string {
	parts := make([]string, len(r.attrs))
	for i, a := range r.attrs {
		parts[i] = fmt.Sprintf("%s:%s@%s", a.Name, a.Dom.Name, a.Phys.Name)
	}
	return fmt.Sprintf("%s(%s)", r.Name, strings.Join(parts, ","))
}
