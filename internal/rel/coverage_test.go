package rel

import (
	"math/big"
	"strings"
	"testing"

	"bddbddb/internal/bdd"
)

func TestNewRelationFromBDDTakesOwnership(t *testing.T) {
	u := testUniverse(t)
	eq := u.Phys("V", 0).Eq(7)
	r := u.NewRelationFromBDD("wrapped", eq, u.A("v", "V", 0))
	want := tupleSet{}
	want.add(7)
	requireTuples(t, r, want)
	r.Free() // releases the wrapped reference
	u.M.GC()
}

func TestReshapeRenameAndRebindAtOnce(t *testing.T) {
	u := testUniverse(t)
	r := u.NewRelation("r", u.A("a", "V", 0), u.A("b", "H", 0))
	r.AddTuple(3, 4)
	s := r.Reshape("s", map[string]Remap{
		"a": {NewName: "x", NewPhys: u.Phys("V", 1)},
		"b": {NewName: "y"},
	})
	if !s.HasAttr("x") || !s.HasAttr("y") || s.Attr("x").Phys != u.Phys("V", 1) {
		t.Fatalf("reshape schema wrong: %s", s)
	}
	want := tupleSet{}
	want.add(3, 4)
	requireTuples(t, s, want)
}

func TestReshapeUnknownAttrPanics(t *testing.T) {
	u := testUniverse(t)
	r := u.NewRelation("r", u.A("a", "V", 0))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r.Reshape("s", map[string]Remap{"nope": {NewName: "x"}})
}

func TestSelectEqualAttrs(t *testing.T) {
	u := testUniverse(t)
	r := u.NewRelation("r", u.A("a", "V", 0), u.A("b", "V", 1))
	r.AddTuple(1, 1)
	r.AddTuple(1, 2)
	r.AddTuple(5, 5)
	eq := r.SelectEqualAttrs("eq", "a", "b")
	want := tupleSet{}
	want.add(1, 1)
	want.add(5, 5)
	requireTuples(t, eq, want)
}

func TestSelectEqualAttrsCrossDomainPanics(t *testing.T) {
	u := testUniverse(t)
	r := u.NewRelation("r", u.A("a", "V", 0), u.A("b", "H", 0))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r.SelectEqualAttrs("eq", "a", "b")
}

func TestFullDomainAndSingleton(t *testing.T) {
	u := testUniverse(t)
	full := u.FullDomain("full", u.A("h", "H", 0))
	if full.Size().Cmp(big.NewInt(10)) != 0 {
		t.Fatalf("full domain size %s", full.Size())
	}
	single := u.Singleton("one", u.A("h", "H", 0), 9)
	want := tupleSet{}
	want.add(9)
	requireTuples(t, single, want)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("out-of-domain singleton accepted")
			}
		}()
		u.Singleton("bad", u.A("h", "H", 0), 10)
	}()
}

func TestElemNames(t *testing.T) {
	u := NewUniverse()
	d := u.Declare("T", 4)
	d.SetElemNames([]string{"Object", "String"})
	if d.ElemName(1) != "String" {
		t.Fatalf("ElemName(1) = %q", d.ElemName(1))
	}
	if d.ElemName(3) != "T#3" {
		t.Fatalf("ElemName(3) = %q", d.ElemName(3))
	}
}

func TestUniverseAccessors(t *testing.T) {
	u := testUniverse(t)
	if u.Domain("V") == nil || u.Domain("nope") != nil {
		t.Fatal("Domain lookup broken")
	}
	ds := u.Domains()
	if len(ds) != 3 || ds[0].Name != "V" {
		t.Fatalf("Domains() = %v", ds)
	}
	if u.Domain("V").Instances() != 3 {
		t.Fatalf("V instances = %d", u.Domain("V").Instances())
	}
}

func TestStringRendersSchema(t *testing.T) {
	u := testUniverse(t)
	r := u.NewRelation("vP", u.A("v", "V", 0), u.A("h", "H", 0))
	s := r.String()
	if !strings.Contains(s, "vP(") || !strings.Contains(s, "v:V@V0") {
		t.Fatalf("String() = %q", s)
	}
}

func TestPhysPanicsOutOfRange(t *testing.T) {
	u := testUniverse(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for missing instance")
		}
	}()
	u.Phys("H", 5)
}

func TestEnsureInstancesValidation(t *testing.T) {
	u := NewUniverse()
	u.Declare("A", 4)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("unknown domain accepted")
			}
		}()
		u.EnsureInstances("B", 2)
	}()
	if err := u.Finalize(FinalizeOptions{}); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("EnsureInstances after Finalize accepted")
			}
		}()
		u.EnsureInstances("A", 2)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Declare after Finalize accepted")
			}
		}()
		u.Declare("C", 2)
	}()
}

func TestSizeOfLargeSparseRelation(t *testing.T) {
	// Size must be exact even when the tuple count is astronomically
	// larger than anything enumerable: a full 2^40-element product.
	u := NewUniverse()
	u.Declare("C", 1<<40)
	u.EnsureInstances("C", 2)
	if err := u.Finalize(FinalizeOptions{}); err != nil {
		t.Fatal(err)
	}
	a := u.A("x", "C", 0)
	b := u.A("y", "C", 1)
	full := u.FullDomain("fx", a).Join("fxy", u.FullDomain("fy", b))
	want := new(big.Int).Lsh(big.NewInt(1), 80)
	if full.Size().Cmp(want) != 0 {
		t.Fatalf("Size = %s, want 2^80", full.Size())
	}
}

func TestIterateNullaryAndEarlyStop(t *testing.T) {
	u := testUniverse(t)
	r := u.NewRelation("r", u.A("v", "V", 0))
	for v := uint64(0); v < 5; v++ {
		r.AddTuple(v)
	}
	n := 0
	r.Iterate(func([]uint64) bool {
		n++
		return n < 2
	})
	if n != 2 {
		t.Fatalf("early stop saw %d tuples", n)
	}
}

func TestRenameNoopKeepsRoot(t *testing.T) {
	u := testUniverse(t)
	r := u.NewRelation("r", u.A("v", "V", 0))
	r.AddTuple(2)
	same := r.Rename("same", map[string]*bdd.Domain{"v": u.Phys("V", 0)})
	if same.Root() != r.Root() {
		t.Fatal("no-op rename changed the BDD")
	}
}
