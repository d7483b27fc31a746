package rel

import (
	"math/rand"
	"testing"
	"testing/quick"

	"bddbddb/internal/bdd"
)

// randomRelation fills r with n random tuples within its domains.
func randomRelation(rng *rand.Rand, r *Relation, n int) {
	attrs := r.Attrs()
	for i := 0; i < n; i++ {
		vals := make([]uint64, len(attrs))
		for j, a := range attrs {
			vals[j] = uint64(rng.Int63n(int64(a.Dom.Size)))
		}
		r.AddTuple(vals...)
	}
}

func TestPropertyUnionLaws(t *testing.T) {
	u := testUniverse(t)
	rng := rand.New(rand.NewSource(60))
	for i := 0; i < 30; i++ {
		a := u.NewRelation("a", u.A("v", "V", 0), u.A("h", "H", 0))
		b := u.NewRelation("b", u.A("v", "V", 0), u.A("h", "H", 0))
		c := u.NewRelation("c", u.A("v", "V", 0), u.A("h", "H", 0))
		randomRelation(rng, a, 10)
		randomRelation(rng, b, 10)
		randomRelation(rng, c, 10)
		// Commutativity.
		ab := a.Union("ab", b)
		ba := b.Union("ba", a)
		if !ab.SameTuples(ba) {
			t.Fatal("union not commutative")
		}
		// Associativity.
		abC := ab.Union("abC", c)
		bc := b.Union("bc", c)
		aBC := a.Union("aBC", bc)
		if !abC.SameTuples(aBC) {
			t.Fatal("union not associative")
		}
		// Idempotence.
		aa := a.Union("aa", a)
		if !aa.SameTuples(a) {
			t.Fatal("union not idempotent")
		}
		for _, r := range []*Relation{a, b, c, ab, ba, abC, bc, aBC, aa} {
			r.Free()
		}
		u.M.GC()
	}
}

func TestPropertyDifferenceLaws(t *testing.T) {
	u := testUniverse(t)
	rng := rand.New(rand.NewSource(61))
	for i := 0; i < 30; i++ {
		a := u.NewRelation("a", u.A("v", "V", 0))
		b := u.NewRelation("b", u.A("v", "V", 0))
		randomRelation(rng, a, 8)
		randomRelation(rng, b, 8)
		// (a - b) ∪ (a ∧ b) == a
		amb := a.Minus("amb", b)
		anb := a.Join("anb", b)
		back := amb.Union("back", anb)
		if !back.SameTuples(a) {
			t.Fatal("difference/intersection partition broken")
		}
		// (a - b) ∧ b == ∅
		cross := amb.Join("cross", b)
		if !cross.IsEmpty() {
			t.Fatal("difference retained shared tuples")
		}
		for _, r := range []*Relation{a, b, amb, anb, back, cross} {
			r.Free()
		}
		u.M.GC()
	}
}

func TestPropertyJoinCommutes(t *testing.T) {
	u := testUniverse(t)
	rng := rand.New(rand.NewSource(62))
	for i := 0; i < 30; i++ {
		a := u.NewRelation("a", u.A("v", "V", 0), u.A("h", "H", 0))
		b := u.NewRelation("b", u.A("h", "H", 0), u.A("f", "F", 0))
		randomRelation(rng, a, 12)
		randomRelation(rng, b, 12)
		ab := a.Join("ab", b)
		ba := b.Join("ba", a)
		// Same tuples regardless of order (schemas are attribute sets).
		if ab.Size().Cmp(ba.Size()) != 0 {
			t.Fatal("join size depends on operand order")
		}
		if !ab.SameSchemaAs(ba) {
			t.Fatal("join schemas inconsistent")
		}
		if !ab.SameTuples(ba.Clone("ba2")) {
			// SameTuples needs matching schema; Clone keeps it. Root
			// equality is the real check:
			if ab.Root() != ba.Root() {
				t.Fatal("join not commutative")
			}
		}
		for _, r := range []*Relation{a, b, ab, ba} {
			r.Free()
		}
		u.M.GC()
	}
}

func TestPropertyProjectionShrinks(t *testing.T) {
	u := testUniverse(t)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := u.NewRelation("a", u.A("v", "V", 0), u.A("h", "H", 0))
		randomRelation(rng, a, 15)
		p := a.ProjectOut("p", "h")
		ok := p.Size().Cmp(a.Size()) <= 0
		a.Free()
		p.Free()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyComplementPartition(t *testing.T) {
	u := testUniverse(t)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := u.NewRelation("a", u.A("h", "H", 0), u.A("f", "F", 0))
		randomRelation(rng, a, 12)
		c := a.Complement("c")
		// a and its complement partition the schema's universe.
		inter := a.Join("x", c)
		un := a.Union("u", c)
		universe := int64(10 * 6) // H size × F size in testUniverse
		ok := inter.IsEmpty() && un.Size().Int64() == universe
		for _, r := range []*Relation{a, c, inter, un} {
			r.Free()
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyRenameRoundTrip(t *testing.T) {
	u := testUniverse(t)
	rng := rand.New(rand.NewSource(63))
	for i := 0; i < 20; i++ {
		a := u.NewRelation("a", u.A("x", "V", 0), u.A("y", "V", 1))
		randomRelation(rng, a, 10)
		// Move x to V2 and back; tuples and schema must survive.
		up := a.Rename("up", map[string]*bdd.Domain{"x": u.Phys("V", 2)})
		down := up.Rename("down", map[string]*bdd.Domain{"x": u.Phys("V", 0)})
		if !down.SameTuples(a) {
			t.Fatal("rename round trip changed tuples")
		}
		for _, r := range []*Relation{a, up, down} {
			r.Free()
		}
		u.M.GC()
	}
}
