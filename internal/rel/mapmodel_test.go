package rel

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"bddbddb/internal/bdd"
)

// The map-model properties: every relational op on random relations
// must produce exactly the tuple set that the same op computes on Go
// maps, so the check is independent of the BDD representation.

type equivUniverse struct {
	u        *Universe
	aV, aH   Attr // A(v,h) on V0,H0
	bH, bF   Attr // B(h,f) on H0,F0
	eV1, eV2 Attr // E(v1,v2) on V0,V1
	vSz, hSz uint64
	fSz      uint64
}

func newEquivUniverse(t *testing.T) *equivUniverse {
	t.Helper()
	u := NewUniverse()
	u.Declare("V", 12)
	u.Declare("H", 9)
	u.Declare("F", 4)
	u.EnsureInstances("V", 2)
	if err := u.Finalize(FinalizeOptions{}); err != nil {
		t.Fatal(err)
	}
	return &equivUniverse{
		u:  u,
		aV: u.A("v", "V", 0), aH: u.A("h", "H", 0),
		bH: u.A("h", "H", 0), bF: u.A("f", "F", 0),
		eV1: u.A("v1", "V", 0), eV2: u.A("v2", "V", 1),
		vSz: 12, hSz: 9, fSz: 4,
	}
}

func randTuples(rng *rand.Rand, n int, sizes ...uint64) [][]uint64 {
	out := make([][]uint64, 0, n)
	for i := 0; i < n; i++ {
		row := make([]uint64, len(sizes))
		for j, s := range sizes {
			row[j] = rng.Uint64() % s
		}
		out = append(out, row)
	}
	return out
}

func makeRel(u *Universe, name string, tuples [][]uint64, attrs ...Attr) *Relation {
	r := u.NewRelation(name, attrs...)
	for _, row := range tuples {
		r.AddTuple(row...)
	}
	return r
}

func rowKey(row []uint64) string {
	parts := make([]string, len(row))
	for i, v := range row {
		parts[i] = fmt.Sprint(v)
	}
	return strings.Join(parts, ",")
}

func tupleKeySet(tuples [][]uint64) map[string]bool {
	m := make(map[string]bool)
	for _, row := range tuples {
		m[rowKey(row)] = true
	}
	return m
}

func canon(m map[string]bool) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, ";")
}

func relCanon(r *Relation) string { return canon(tupleKeySet(r.Tuples())) }

func checkRel(t *testing.T, label string, r *Relation, want map[string]bool) {
	t.Helper()
	if got := relCanon(r); got != canon(want) {
		t.Errorf("%s: tuples diverge\n got %s\nwant %s", label, got, canon(want))
	}
	if wantN := int64(len(want)); r.Size().Int64() != wantN {
		t.Errorf("%s: Size=%v want %d", label, r.Size(), wantN)
	}
	if r.IsEmpty() != (len(want) == 0) {
		t.Errorf("%s: IsEmpty=%v with %d tuples", label, r.IsEmpty(), len(want))
	}
}

func TestRelOpsMatchMapModel(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runMapModel(t, seed)
		})
	}
}

func runMapModel(t *testing.T, seed int64) {
	eu := newEquivUniverse(t)
	u := eu.u
	rng := rand.New(rand.NewSource(seed))

	aT := randTuples(rng, 1+rng.Intn(40), eu.vSz, eu.hSz)
	cT := randTuples(rng, 1+rng.Intn(40), eu.vSz, eu.hSz)
	bT := randTuples(rng, 1+rng.Intn(30), eu.hSz, eu.fSz)
	aSet, cSet := tupleKeySet(aT), tupleKeySet(cT)

	a := makeRel(u, "A", aT, eu.aV, eu.aH)
	c := makeRel(u, "C", cT, eu.aV, eu.aH)
	b := makeRel(u, "B", bT, eu.bH, eu.bF)

	// Union / Minus / SameTuples.
	want := make(map[string]bool)
	for k := range aSet {
		want[k] = true
	}
	for k := range cSet {
		want[k] = true
	}
	un := a.Union("A∪C", c)
	checkRel(t, "union", un, want)

	want = make(map[string]bool)
	for k := range aSet {
		if !cSet[k] {
			want[k] = true
		}
	}
	mi := a.Minus("A−C", c)
	checkRel(t, "minus", mi, want)

	if got, wantEq := a.SameTuples(c), canon(aSet) == canon(cSet); got != wantEq {
		t.Errorf("SameTuples=%v want %v", got, wantEq)
	}
	if !a.SameTuples(a.Clone("A'")) {
		t.Errorf("SameTuples(self clone)=false")
	}

	// Join and JoinProject on the shared attribute h.
	wantJoin := make(map[string]bool)
	wantJP := make(map[string]bool)
	for _, ar := range aT {
		for _, br := range bT {
			if ar[1] == br[0] {
				wantJoin[rowKey([]uint64{ar[0], ar[1], br[1]})] = true
				wantJP[rowKey([]uint64{ar[0], br[1]})] = true
			}
		}
	}
	j := a.Join("A⋈B", b)
	checkRel(t, "join", j, wantJoin)
	jp := a.JoinProject("A⋈B−h", b, "h")
	checkRel(t, "joinProject", jp, wantJP)

	// UnionWith mutates in place and reports growth.
	acl := a.Clone("A″")
	grew := acl.UnionWith(c)
	wantGrew := false
	for k := range cSet {
		if !aSet[k] {
			wantGrew = true
		}
	}
	if grew != wantGrew {
		t.Errorf("UnionWith changed=%v want %v", grew, wantGrew)
	}
	checkRel(t, "unionWith", acl, tupleKeySet(un.Tuples()))

	for _, r := range []*Relation{b, c, un, mi, j, jp, acl} {
		r.Free()
	}

	// Unary ops.
	want = make(map[string]bool)
	for _, row := range aT {
		want[rowKey(row[:1])] = true
	}
	p := a.ProjectOut("A−h", "h")
	checkRel(t, "projectOut", p, want)

	sel := uint64(int(eu.hSz) / 2)
	want = make(map[string]bool)
	for _, row := range aT {
		if row[1] == sel {
			want[rowKey(row)] = true
		}
	}
	se := a.SelectEq("A[h=k]", "h", sel)
	checkRel(t, "selectEq", se, want)

	// Complement within the schema volume.
	want = make(map[string]bool)
	for v := uint64(0); v < eu.vSz; v++ {
		for h := uint64(0); h < eu.hSz; h++ {
			if !aSet[rowKey([]uint64{v, h})] {
				want[rowKey([]uint64{v, h})] = true
			}
		}
	}
	co := a.Complement("¬A")
	checkRel(t, "complement", co, want)

	// Rename to another physical instance, Reshape back, and a pure
	// metadata RenameAttr: tuples must ride along unchanged.
	rn := a.Rename("A@V1", map[string]*bdd.Domain{"v": u.Phys("V", 1)})
	checkRel(t, "rename", rn, aSet)
	if rn.Attr("v").Phys != u.Phys("V", 1) {
		t.Errorf("rename left phys %s", rn.Attr("v").Phys.Name)
	}
	rs := rn.Reshape("A@V0", map[string]Remap{"v": {NewName: "var", NewPhys: u.Phys("V", 0)}})
	checkRel(t, "reshape", rs, aSet)
	if !rs.HasAttr("var") || rs.Attr("var").Phys != u.Phys("V", 0) {
		t.Errorf("reshape metadata wrong: %s", rs)
	}
	ra := a.RenameAttr("A'", "h", "heap")
	checkRel(t, "renameAttr", ra, aSet)

	for _, r := range []*Relation{a, p, se, co, rn, rs, ra} {
		r.Free()
	}

	// SelectEqualAttrs over two instances of one logical domain.
	eT := randTuples(rng, 1+rng.Intn(40), eu.vSz, eu.vSz)
	e := makeRel(u, "E", eT, eu.eV1, eu.eV2)
	want = make(map[string]bool)
	for _, row := range eT {
		if row[0] == row[1] {
			want[rowKey(row)] = true
		}
	}
	eq := e.SelectEqualAttrs("E[v1=v2]", "v1", "v2")
	checkRel(t, "selectEqualAttrs", eq, want)
	e.Free()
	eq.Free()

	// Deriving ops leave the receiver's modification stamp alone;
	// mutation bumps it.
	rt := makeRel(u, "RT", aT, eu.aV, eu.aH)
	stamp := rt.Stamp()
	rt.ProjectOut("RT−h", "h").Free()
	rt.Clone("RT'").Free()
	if rt.Stamp() != stamp {
		t.Errorf("deriving ops bumped stamp %d→%d", stamp, rt.Stamp())
	}
	if rt.AddTuple(0, 0); rt.Stamp() == stamp {
		t.Error("AddTuple did not bump stamp")
	}
	rt.Free()
}
