package rel

import (
	"fmt"
	"math/big"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"bddbddb/internal/bdd"
)

// tupleSet is the naive oracle: a set of tuples keyed by fmt of values.
type tupleSet map[string][]uint64

func key(vals []uint64) string { return fmt.Sprint(vals) }

func (s tupleSet) add(vals ...uint64) {
	s[key(vals)] = append([]uint64(nil), vals...)
}

func (s tupleSet) sorted() [][]uint64 {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([][]uint64, len(keys))
	for i, k := range keys {
		out[i] = s[k]
	}
	return out
}

func sortTuples(ts [][]uint64) {
	sort.Slice(ts, func(i, j int) bool { return key(ts[i]) < key(ts[j]) })
}

func requireTuples(t *testing.T, r *Relation, want tupleSet) {
	t.Helper()
	got := r.Tuples()
	sortTuples(got)
	w := want.sorted()
	if !reflect.DeepEqual(got, w) {
		t.Fatalf("%s tuples = %v, want %v", r.Name, got, w)
	}
	if r.Size().Cmp(big.NewInt(int64(len(want)))) != 0 {
		t.Fatalf("%s Size = %s, want %d", r.Name, r.Size(), len(want))
	}
}

func testUniverse(t *testing.T) *Universe {
	t.Helper()
	u := NewUniverse()
	u.Declare("V", 20)
	u.Declare("H", 10)
	u.Declare("F", 6)
	u.EnsureInstances("V", 3)
	u.EnsureInstances("H", 2)
	if err := u.Finalize(FinalizeOptions{}); err != nil {
		t.Fatal(err)
	}
	return u
}

func TestAddTupleAndIterate(t *testing.T) {
	u := testUniverse(t)
	r := u.NewRelation("vP", u.A("v", "V", 0), u.A("h", "H", 0))
	want := tupleSet{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 40; i++ {
		v, h := uint64(rng.Intn(20)), uint64(rng.Intn(10))
		r.AddTuple(v, h)
		want.add(v, h)
	}
	requireTuples(t, r, want)
}

func TestUnionMinus(t *testing.T) {
	u := testUniverse(t)
	a := u.NewRelation("a", u.A("v", "V", 0))
	b := u.NewRelation("b", u.A("v", "V", 0))
	for _, v := range []uint64{1, 2, 3, 4} {
		a.AddTuple(v)
	}
	for _, v := range []uint64{3, 4, 5} {
		b.AddTuple(v)
	}
	un := a.Union("u", b)
	want := tupleSet{}
	for _, v := range []uint64{1, 2, 3, 4, 5} {
		want.add(v)
	}
	requireTuples(t, un, want)

	mi := a.Minus("m", b)
	want = tupleSet{}
	want.add(1)
	want.add(2)
	requireTuples(t, mi, want)

	changed := a.UnionWith(b)
	if !changed {
		t.Fatal("UnionWith should report change")
	}
	if a.UnionWith(b) {
		t.Fatal("second UnionWith should be a no-op")
	}
}

func TestJoinNatural(t *testing.T) {
	u := testUniverse(t)
	// assign(dest:V1, src:V0) ⋈ vP(src→? no: vP(v:V0,h:H0) with v renamed)
	vP := u.NewRelation("vP", u.A("v", "V", 0), u.A("h", "H", 0))
	vP.AddTuple(1, 5)
	vP.AddTuple(2, 6)
	vP.AddTuple(2, 7)
	assign := u.NewRelation("assign", u.A("dest", "V", 1), u.A("v", "V", 0))
	assign.AddTuple(3, 1)
	assign.AddTuple(4, 2)
	j := assign.Join("j", vP)
	want := tupleSet{}
	want.add(3, 1, 5)
	want.add(4, 2, 6)
	want.add(4, 2, 7)
	requireTuples(t, j, want)
}

func TestJoinProjectMatchesJoinThenProject(t *testing.T) {
	u := testUniverse(t)
	vP := u.NewRelation("vP", u.A("v", "V", 0), u.A("h", "H", 0))
	assign := u.NewRelation("assign", u.A("dest", "V", 1), u.A("v", "V", 0))
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 30; i++ {
		vP.AddTuple(uint64(rng.Intn(20)), uint64(rng.Intn(10)))
		assign.AddTuple(uint64(rng.Intn(20)), uint64(rng.Intn(20)))
	}
	fused := assign.JoinProject("f", vP, "v")
	joined := assign.Join("j", vP)
	projected := joined.ProjectOut("p", "v")
	if !fused.SameTuples(projected) {
		t.Fatal("JoinProject != Join∘ProjectOut")
	}
}

func TestRenameMovesPhysical(t *testing.T) {
	u := testUniverse(t)
	r := u.NewRelation("r", u.A("a", "V", 0), u.A("b", "V", 1))
	r.AddTuple(1, 2)
	r.AddTuple(3, 4)
	moved := r.Rename("moved", map[string]*bdd.Domain{"a": u.Phys("V", 2)})
	if moved.Attr("a").Phys != u.Phys("V", 2) {
		t.Fatal("attribute not rebound")
	}
	want := tupleSet{}
	want.add(1, 2)
	want.add(3, 4)
	requireTuples(t, moved, want)
	// Joinable against a relation on V2 now.
	other := u.NewRelation("o", u.A("a", "V", 2))
	other.AddTuple(3)
	j := moved.Join("j", other)
	want = tupleSet{}
	want.add(3, 4)
	requireTuples(t, j, want)
}

func TestRenameSwapInstances(t *testing.T) {
	u := testUniverse(t)
	r := u.NewRelation("r", u.A("a", "V", 0), u.A("b", "V", 1))
	r.AddTuple(1, 2)
	r.AddTuple(3, 4)
	swapped := r.Rename("s", map[string]*bdd.Domain{
		"a": u.Phys("V", 1),
		"b": u.Phys("V", 0),
	})
	// Schema swapped but tuple values unchanged (a=1,b=2 still holds).
	want := tupleSet{}
	want.add(1, 2)
	want.add(3, 4)
	requireTuples(t, swapped, want)
	if swapped.Attr("a").Phys != u.Phys("V", 1) || swapped.Attr("b").Phys != u.Phys("V", 0) {
		t.Fatal("swap did not rebind attributes")
	}
}

func TestSelectEq(t *testing.T) {
	u := testUniverse(t)
	r := u.NewRelation("r", u.A("v", "V", 0), u.A("h", "H", 0))
	r.AddTuple(1, 2)
	r.AddTuple(1, 3)
	r.AddTuple(4, 2)
	sel := r.SelectEq("sel", "v", 1)
	want := tupleSet{}
	want.add(1, 2)
	want.add(1, 3)
	requireTuples(t, sel, want)
	dropped := sel.ProjectOut("d", "v")
	want = tupleSet{}
	want.add(2)
	want.add(3)
	requireTuples(t, dropped, want)
}

func TestComplement(t *testing.T) {
	u := testUniverse(t)
	r := u.NewRelation("r", u.A("h", "H", 0))
	r.AddTuple(0)
	r.AddTuple(9)
	c := r.Complement("c")
	want := tupleSet{}
	for v := uint64(1); v < 9; v++ {
		want.add(v)
	}
	requireTuples(t, c, want)
	// Complement twice is identity.
	cc := c.Complement("cc")
	if !cc.SameTuples(r) {
		t.Fatal("double complement is not identity")
	}
}

func TestComplementBinary(t *testing.T) {
	u := testUniverse(t)
	r := u.NewRelation("r", u.A("h", "H", 0), u.A("f", "F", 0))
	r.AddTuple(3, 2)
	c := r.Complement("c")
	if got := c.Size(); got.Cmp(big.NewInt(10*6-1)) != 0 {
		t.Fatalf("complement size %s, want 59", got)
	}
}

func TestRenameAttrMetadataOnly(t *testing.T) {
	u := testUniverse(t)
	r := u.NewRelation("r", u.A("v", "V", 0))
	r.AddTuple(7)
	s := r.RenameAttr("s", "v", "w")
	if !s.HasAttr("w") || s.HasAttr("v") {
		t.Fatal("attribute not renamed")
	}
	if s.Root() != r.Root() {
		t.Fatal("RenameAttr should not touch the BDD")
	}
}

func TestCloneIndependent(t *testing.T) {
	u := testUniverse(t)
	r := u.NewRelation("r", u.A("v", "V", 0))
	r.AddTuple(1)
	c := r.Clone("c")
	c.AddTuple(2)
	if r.Size().Cmp(big.NewInt(1)) != 0 {
		t.Fatal("mutating clone affected original")
	}
	if c.Size().Cmp(big.NewInt(2)) != 0 {
		t.Fatal("clone lost a tuple")
	}
}

func TestSchemaMismatchPanics(t *testing.T) {
	u := testUniverse(t)
	a := u.NewRelation("a", u.A("v", "V", 0))
	b := u.NewRelation("b", u.A("v", "V", 1))
	defer func() {
		if recover() == nil {
			t.Fatal("union across physical domains should panic")
		}
	}()
	a.Union("x", b)
}

func TestJoinMisalignedPanics(t *testing.T) {
	u := testUniverse(t)
	a := u.NewRelation("a", u.A("v", "V", 0))
	b := u.NewRelation("b", u.A("v", "V", 1))
	defer func() {
		if recover() == nil {
			t.Fatal("join with misaligned shared attribute should panic")
		}
	}()
	a.Join("x", b)
}

func TestJoinPhysCollisionPanics(t *testing.T) {
	u := testUniverse(t)
	a := u.NewRelation("a", u.A("x", "V", 0))
	b := u.NewRelation("b", u.A("y", "V", 0))
	defer func() {
		if recover() == nil {
			t.Fatal("join with colliding private attributes should panic")
		}
	}()
	a.Join("x", b)
}

func TestEmptyRelation(t *testing.T) {
	u := testUniverse(t)
	r := u.NewRelation("r", u.A("v", "V", 0))
	if !r.IsEmpty() {
		t.Fatal("new relation should be empty")
	}
	if len(r.Tuples()) != 0 {
		t.Fatal("empty relation has tuples")
	}
	if r.Size().Sign() != 0 {
		t.Fatal("empty relation has nonzero size")
	}
}

// TestDifferentialRandomOps cross-checks a random pipeline of relational
// operations against the naive tuple-set oracle.
func TestDifferentialRandomOps(t *testing.T) {
	u := testUniverse(t)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		// r(a:V0, b:H0), s(b:H0, c:F0)
		r := u.NewRelation("r", u.A("a", "V", 0), u.A("b", "H", 0))
		s := u.NewRelation("s", u.A("b", "H", 0), u.A("c", "F", 0))
		rSet, sSet := tupleSet{}, tupleSet{}
		for i := 0; i < 25; i++ {
			a, b := uint64(rng.Intn(20)), uint64(rng.Intn(10))
			r.AddTuple(a, b)
			rSet.add(a, b)
			b2, c := uint64(rng.Intn(10)), uint64(rng.Intn(6))
			s.AddTuple(b2, c)
			sSet.add(b2, c)
		}
		// Join on b, project b away: {(a,c) | ∃b r(a,b) ∧ s(b,c)}.
		j := r.JoinProject("j", s, "b")
		want := tupleSet{}
		for _, rt := range rSet {
			for _, st := range sSet {
				if rt[1] == st[0] {
					want.add(rt[0], st[1])
				}
			}
		}
		requireTuples(t, j, want)
		r.Free()
		s.Free()
		j.Free()
		u.M.GC()
	}
}

func TestFreeReleasesNodes(t *testing.T) {
	u := testUniverse(t)
	r := u.NewRelation("r", u.A("a", "V", 0), u.A("b", "V", 1))
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		r.AddTuple(uint64(rng.Intn(20)), uint64(rng.Intn(20)))
	}
	r.Free()
	live := u.M.GC()
	// Only terminals and the domains' interned varsets should survive.
	if live > 2+u.M.NumVars()+8 {
		t.Fatalf("GC after Free left %d nodes live", live)
	}
}

func TestUniverseErrors(t *testing.T) {
	u := NewUniverse()
	u.Declare("A", 4)
	if err := u.Finalize(FinalizeOptions{Order: []string{"B"}}); err == nil {
		t.Fatal("unknown domain in order accepted")
	}
	u2 := NewUniverse()
	u2.Declare("A", 4)
	if err := u2.Finalize(FinalizeOptions{Order: []string{"A", "A"}}); err == nil {
		t.Fatal("duplicate domain in order accepted")
	}
	u3 := NewUniverse()
	u3.Declare("A", 4)
	if err := u3.Finalize(FinalizeOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := u3.Finalize(FinalizeOptions{}); err == nil {
		t.Fatal("double Finalize accepted")
	}
}
