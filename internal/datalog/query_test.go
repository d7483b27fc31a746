package datalog

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"bddbddb/internal/datalog/check"
	"bddbddb/internal/rel"
	"bddbddb/internal/resilience"
)

// solvedBase solves a small transitive-closure program, freezes its
// relations, and wraps them in a QueryBase — the in-process version of
// what a serve replica does after hydration.
func solvedBase(t *testing.T) *QueryBase {
	t.Helper()
	src := `
.domain V 8 v.map
.relation edge (from : V, to : V) input
.relation path (from : V, to : V) output

path(x, y) :- edge(x, y).
path(x, z) :- path(x, y), path(y, z).
`
	prog, diags, err := ParseAndCheck("tc.dl", src)
	if err != nil {
		t.Fatal(err)
	}
	if diags.HasErrors() {
		t.Fatal(diags)
	}
	s, err := NewSolver(prog, Options{
		ElemNames: map[string][]string{"V": {"n0", "n1", "n2", "n3", "n4", "n5", "n6", "n7"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	edge := s.Relation("edge")
	edge.AddTuple(1, 2)
	edge.AddTuple(2, 3)
	edge.AddTuple(3, 4)
	edge.AddTuple(5, 6)
	if err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	edge.Freeze()
	path := s.Relation("path")
	path.Freeze()
	return NewQueryBase(s.Universe(), []*rel.Relation{edge, path})
}

// sorted orders tuples numerically; BDD enumeration order is
// deterministic but follows the variable order, not tuple values.
func sorted(ts [][]uint64) [][]uint64 {
	sort.Slice(ts, func(i, j int) bool { return fmt.Sprint(ts[i]) < fmt.Sprint(ts[j]) })
	return ts
}

func TestQueryEvalBasic(t *testing.T) {
	b := solvedBase(t)
	res, err := b.Eval(`
.relation q (to : V) output
q(y) :- path(1, y).
`, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	if len(res.Outputs) != 1 || res.Outputs[0].Name != "q" {
		t.Fatalf("outputs = %v", res.Outputs)
	}
	got := sorted(res.Outputs[0].Tuples())
	want := [][]uint64{{2}, {3}, {4}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("q = %v, want %v", got, want)
	}
}

func TestQueryEvalNamedConst(t *testing.T) {
	b := solvedBase(t)
	res, err := b.Eval(`
.relation q (to : V) output
q(y) :- path("n2", y).
`, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	got := sorted(res.Outputs[0].Tuples())
	want := [][]uint64{{3}, {4}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("q = %v, want %v", got, want)
	}
}

func TestQueryEvalJoinAcrossBase(t *testing.T) {
	// Two base literals joined on a shared variable — the aliases
	// shape the server's GET endpoints rely on.
	b := solvedBase(t)
	res, err := b.Eval(`
.relation reach2 (from : V, to : V) output
reach2(x, z) :- edge(x, y), edge(y, z).
`, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	got := sorted(res.Outputs[0].Tuples())
	want := [][]uint64{{1, 3}, {2, 4}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reach2 = %v, want %v", got, want)
	}
}

func TestQueryRejectsWriteToBase(t *testing.T) {
	b := solvedBase(t)
	_, err := b.Eval(`
.relation q (to : V) output
path(0, 7).
q(y) :- path(0, y).
`, QueryOptions{})
	if !errors.Is(err, ErrQueryRejected) {
		t.Fatalf("want ErrQueryRejected, got %v", err)
	}
}

func TestQueryRejectsNoOutput(t *testing.T) {
	b := solvedBase(t)
	_, err := b.Eval(`
.relation q (to : V)
q(y) :- path(1, y).
`, QueryOptions{})
	if !errors.Is(err, ErrQueryRejected) {
		t.Fatalf("want ErrQueryRejected, got %v", err)
	}
}

func TestQueryRejectsNewDomain(t *testing.T) {
	b := solvedBase(t)
	_, err := b.Eval(`
.domain W 4
.relation q (w : W) output
q(0).
`, QueryOptions{})
	if !errors.Is(err, ErrQueryRejected) {
		t.Fatalf("want ErrQueryRejected, got %v", err)
	}
}

func TestQueryRejectsTooManyStrata(t *testing.T) {
	b := solvedBase(t)
	src := `
.relation r (from : V, to : V) output
.relation q (from : V, to : V) output
r(x, y) :- path(x, y).
q(x, y) :- path(x, y), !r(y, x).
`
	if _, err := b.Eval(src, QueryOptions{}); !errors.Is(err, ErrQueryRejected) {
		t.Fatalf("want ErrQueryRejected at MaxStrata 1, got %v", err)
	}
	// The same query passes when the server raises the cap.
	res, err := b.Eval(src, QueryOptions{MaxStrata: 2})
	if err != nil {
		t.Fatal(err)
	}
	res.Close()
}

func TestQueryRejectsInstanceOverflow(t *testing.T) {
	// The base universe has V×3 (forced by the tc rule); four distinct
	// variables in one rule demand a fourth instance.
	b := solvedBase(t)
	_, err := b.Eval(`
.relation q (to : V) output
q(a) :- path(a, b), path(b, c), path(c, d).
`, QueryOptions{})
	if !errors.Is(err, ErrQueryRejected) {
		t.Fatalf("want ErrQueryRejected, got %v", err)
	}
}

func TestQuerySyntaxErrorRebased(t *testing.T) {
	b := solvedBase(t)
	_, err := b.Eval(".relation q (to : V) output\nq(y) :- path(1 y).\n", QueryOptions{})
	var ce *check.Error
	if !errors.As(err, &ce) {
		t.Fatalf("want *check.Error, got %v", err)
	}
	d := ce.Diags[0]
	if d.Line != 2 {
		t.Fatalf("diag line = %d, want 2 (rebased past the prelude): %v", d.Line, d)
	}
}

func TestQueryBudgetIterations(t *testing.T) {
	b := solvedBase(t)
	ctl := resilience.NewController(context.Background(), resilience.Budget{MaxIterations: 1})
	_, err := b.Eval(`
.relation q (from : V, to : V) output
q(x, y) :- edge(x, y).
q(x, z) :- q(x, y), edge(y, z).
`, QueryOptions{Control: ctl})
	if !errors.Is(err, resilience.ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
	// A fresh, unbounded evaluation on the same base must still work:
	// the failed query released its state and the manager control is
	// reset.
	res, err := b.Eval(`
.relation q (to : V) output
q(y) :- path(1, y).
`, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res.Close()
}

func TestQueryNoLeaks(t *testing.T) {
	b := solvedBase(t)
	b.u.M.GC()
	baseline := b.u.M.LiveNodes()
	for i := 0; i < 5; i++ {
		res, err := b.Eval(`
.relation q (from : V, to : V) output
q(x, z) :- path(x, y), path(y, z).
`, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		res.Close()
	}
	b.u.M.GC()
	if live := b.u.M.LiveNodes(); live != baseline {
		t.Fatalf("live nodes %d after queries, want baseline %d (query state leaked)", live, baseline)
	}
}

// TestPreparedShapeLayouts: queries of one shape may differ in layout
// and in their constants; each answers, or fails with diagnostics at
// its own positions, exactly as on a base that never saw the shape.
func TestPreparedShapeLayouts(t *testing.T) {
	shapes := [][]string{
		{
			".relation q (to : V) output\nq(y) :- path(\"n1\", y).",
			"# a comment\n.relation q (to : V) output\n\n  q(y)   :-\n\tpath( \"nosuch\" ,y).",
			".relation q (to : V) output q(y) :- path(\"n2\", y).",
			".relation q (to : V) output\nq(y) :- path(99, y).",
			".relation q (to : V) output\n\n\nq(y) :- path(123456789012345678901234567890, y).",
			".relation q (to : V) output\nq(y) :- path(5, y).",
		},
		{
			".relation q (from : V, to : V) output\nq(\"n7\", y) :- path(\"n1\", y), !edge(\"n1\", y).\nq(3, 4).",
			".relation q (from : V, to : V) output\nq(\"n0\", y) :- path(\"n2\", y), !edge(\"n2\", y).\n  q(30, 4).",
			".relation q (from : V, to : V) output\nq(\"n0\", y) :- path(\"n2\", y), !edge(\"n2\", y).\nq(\"n3\", \"x\").",
			".relation q (from : V, to : V) output\nq(\"zz\", y) :- path(\"n2\", y), !edge(\"yy\", y).\nq(1, 2).",
			".relation q (from : V, to : V) output\nq(5, y) :- path(1, y), !edge(2, y).\nq(6, 7).",
		},
	}
	outcome := func(b *QueryBase, src string) string {
		res, err := b.Eval(src, QueryOptions{})
		if err != nil {
			var ce *check.Error
			if errors.As(err, &ce) {
				return fmt.Sprintf("error %v", ce.Diags)
			}
			return "error " + err.Error()
		}
		defer res.Close()
		return fmt.Sprint(sorted(res.Outputs[0].Tuples()), res.Stats)
	}
	prepared := solvedBase(t)
	for _, texts := range shapes {
		for _, src := range texts {
			got := outcome(prepared, src)
			if want := outcome(solvedBase(t), src); got != want {
				t.Errorf("%q:\nprepared %s\nfresh    %s", src, got, want)
			}
		}
	}
	// A slot's key is its token's kind: the texts above name five
	// shapes, by their number and string constants.
	if len(prepared.shapes) != 5 {
		t.Errorf("%d shapes kept, want 5", len(prepared.shapes))
	}
}

// TestPreparedShapesBounded: the base keeps at most maxShapes shapes,
// dropping the oldest, and Release drops them all with their helper
// nodes.
func TestPreparedShapesBounded(t *testing.T) {
	b := solvedBase(t)
	b.u.M.GC()
	baseline := b.u.M.LiveNodes()
	for i := range maxShapes + 5 {
		// The head's repeated variable joins an Equals helper, which
		// the shape keeps.
		src := fmt.Sprintf(".relation q%d (a : V, b : V) output\nq%d(y, y) :- path(1, y).", i, i)
		res, err := b.Eval(src, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		res.Close()
	}
	if len(b.shapes) != maxShapes || len(b.shapeOrder) != maxShapes {
		t.Fatalf("%d shapes kept (%d in order), want %d", len(b.shapes), len(b.shapeOrder), maxShapes)
	}
	if _, ok := b.shapes[b.shapeOrder[0]]; !ok || strings.Contains(b.shapeOrder[0], "q0") {
		t.Fatalf("oldest kept shape %q; want q0 through q4 dropped", b.shapeOrder[0])
	}
	b.u.M.GC()
	if live := b.u.M.LiveNodes(); live <= baseline {
		t.Fatalf("live nodes %d with shapes kept, baseline %d: the shapes hold no helper", live, baseline)
	}
	b.Release()
	b.u.M.GC()
	if live := b.u.M.LiveNodes(); live != baseline {
		t.Fatalf("live nodes %d after Release, want baseline %d", live, baseline)
	}
}
