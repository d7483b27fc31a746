package rel

import (
	"fmt"
	"math/rand"
	"testing"

	"bddbddb/internal/bdd"
)

// cubeUnion is the reference for AddTuples: the OR of one conjunction
// of Eq constraints per row, built by apply alone.
func cubeUnion(u *Universe, attrs []Attr, rows [][]uint64) bdd.Node {
	m := u.M
	acc := m.Ref(bdd.False)
	for _, row := range rows {
		cube := m.Ref(bdd.True)
		for i, a := range attrs {
			eq := a.Phys.Eq(row[i])
			next := m.And(cube, eq)
			m.Deref(cube)
			m.Deref(eq)
			cube = next
		}
		next := m.Or(acc, cube)
		m.Deref(acc)
		m.Deref(cube)
		acc = next
	}
	return acc
}

// checkAddTuples loads rows through AddTuples and requires the result
// to equal the OR of single-tuple cubes exactly.
func checkAddTuples(t *testing.T, u *Universe, label string, attrs []Attr, rows [][]uint64) {
	t.Helper()
	want := cubeUnion(u, attrs, rows)
	defer u.M.Deref(want)
	r := u.NewRelation("r", attrs...)
	r.AddTuples(rows)
	if r.Root() != want {
		t.Errorf("%s: AddTuples of %d rows differs from the OR of their cubes", label, len(rows))
	}
	r.Free()
}

func randomRows(rng *rand.Rand, attrs []Attr, n int) [][]uint64 {
	rows := make([][]uint64, n)
	for i := range rows {
		row := make([]uint64, len(attrs))
		for j, a := range attrs {
			switch rng.Intn(4) {
			case 0:
				row[j] = a.Dom.Size - 1 // the largest value
			case 1:
				row[j] = 0
			default:
				row[j] = uint64(rng.Int63n(int64(a.Dom.Size)))
			}
		}
		rows[i] = row
	}
	// Repeat some rows and leave the batch unsorted.
	for i := 0; i < n/4; i++ {
		rows = append(rows, rows[rng.Intn(n)])
	}
	rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	return rows
}

func TestAddTuplesEqualsCubeUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	u := testUniverse(t)
	// V0 and V1 are interleaved instances of one domain; H1 and F sit
	// in other blocks; sizes 20, 10 and 6 are not powers of two.
	for _, sc := range []struct {
		name  string
		attrs []Attr
	}{
		{"unary", []Attr{u.A("v", "V", 0)}},
		{"interleaved", []Attr{u.A("a", "V", 1), u.A("b", "V", 0)}},
		{"wide", []Attr{u.A("v", "V", 2), u.A("f", "F", 0), u.A("w", "V", 0), u.A("h", "H", 1)}},
	} {
		checkAddTuples(t, u, sc.name+"/empty", sc.attrs, nil)
		for _, n := range []int{1, 2, 7, 40, 300} {
			checkAddTuples(t, u, fmt.Sprintf("%s/%d", sc.name, n), sc.attrs, randomRows(rng, sc.attrs, n))
		}
	}
	// The C+HC order group interleaves two domains' instances bitwise.
	g := groupUniverse(t, nil)
	attrs := []Attr{g.A("hc", "HC", 1), g.A("v", "V", 0), g.A("c", "C", 0), g.A("d", "C", 1)}
	for _, n := range []int{1, 16, 200} {
		checkAddTuples(t, g, fmt.Sprintf("C+HC/%d", n), attrs, randomRows(rng, attrs, n))
	}
	// Nullary: any row makes the relation true.
	z := u.NewRelation("z")
	z.AddTuples([][]uint64{{}, {}})
	if z.Root() != bdd.True {
		t.Error("nullary AddTuples of two empty rows is not True")
	}
}

func TestAddTuplesExtendsExistingTuples(t *testing.T) {
	u := testUniverse(t)
	attrs := []Attr{u.A("v", "V", 0), u.A("h", "H", 0)}
	r := u.NewRelation("r", attrs...)
	r.AddTuple(3, 4)
	r.AddTuples([][]uint64{{5, 6}, {3, 4}})
	want := tupleSet{}
	want.add(3, 4)
	want.add(5, 6)
	requireTuples(t, r, want)
}

func panicText(f func()) (msg string) {
	defer func() { msg = fmt.Sprint(recover()) }()
	f()
	return "no panic"
}

func TestAddTuplesPanicsLikeAddTuple(t *testing.T) {
	u := testUniverse(t)
	attrs := []Attr{u.A("v", "V", 0), u.A("h", "H", 0)}
	for _, bad := range [][]uint64{
		{20, 0}, // V has size 20
		{0, 10}, // H has size 10
		{1},     // arity
		{1, 2, 3},
	} {
		r := u.NewRelation("r", attrs...)
		want := panicText(func() { r.AddTuple(bad...) })
		if want == "no panic" {
			t.Fatalf("AddTuple(%v) did not panic", bad)
		}
		got := panicText(func() { r.AddTuples([][]uint64{{1, 1}, bad, {2, 2}}) })
		if got != want {
			t.Errorf("AddTuples with row %v panicked %q, AddTuple panics %q", bad, got, want)
		}
		if !r.IsEmpty() {
			t.Errorf("AddTuples with bad row %v inserted the rows before it", bad)
		}
	}
	r := u.NewRelation("frozen", attrs...)
	r.Freeze()
	want := panicText(func() { r.AddTuple(1, 1) })
	if got := panicText(func() { r.AddTuples([][]uint64{{1, 1}}) }); got != want {
		t.Errorf("AddTuples on a frozen relation panicked %q, AddTuple panics %q", got, want)
	}
}
