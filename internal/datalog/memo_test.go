package datalog

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"bddbddb/internal/rel"
	"bddbddb/internal/resilience"
)

// memoBase builds a QueryBase over one frozen random relation
// r(c : C, v : V, h : H), shaped like vPC.
func memoBase(t *testing.T) (*QueryBase, *rel.Relation) {
	t.Helper()
	u := rel.NewUniverse()
	for _, d := range []string{"C", "V", "H"} {
		u.Declare(d, 64)
		u.EnsureInstances(d, 1)
	}
	if err := u.Finalize(rel.FinalizeOptions{Order: []string{"V", "C", "H"}, NodeSize: 1 << 10}); err != nil {
		t.Fatal(err)
	}
	r := u.NewRelation("r", u.A("c", "C", 0), u.A("v", "V", 0), u.A("h", "H", 0))
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		r.AddTuple(uint64(rng.Intn(64)), uint64(rng.Intn(64)), uint64(rng.Intn(64)))
	}
	r.Freeze()
	return NewQueryBase(u, []*rel.Relation{r}), r
}

// TestQueryMemoFillBudgetTrip: a budget trip inside the first query's
// memo fill fails that query, leaves no memo entry, and the next
// query fills the memo and answers correctly.
func TestQueryMemoFillBudgetTrip(t *testing.T) {
	b, r := memoBase(t)
	m := b.u.M
	const q = `
.relation q (v : V) output
q(v) :- r(_, v, 3).
`
	// The fill allocates at least the projection's own nodes; leave the
	// table only half that much room, so the fill must grow the table,
	// which checks the node budget.
	p := r.ProjectOut("p", "c")
	need := m.NodeCount(p.Root())
	var want [][]uint64
	sel := r.SelectEq("sel", "h", 3)
	for _, tu := range sel.Tuples() {
		want = append(want, []uint64{tu[1]})
	}
	want = sorted(dedup(want))
	p.Free()
	sel.Free()
	b.u.GC()
	pad := b.u.NewRelation("pad", b.u.A("c", "C", 0), b.u.A("v", "V", 0), b.u.A("h", "H", 0))
	rng := rand.New(rand.NewSource(2))
	for m.Stats().TableSize-m.LiveNodes() > need/2 {
		pad.AddTuple(uint64(rng.Intn(64)), uint64(rng.Intn(64)), uint64(rng.Intn(64)))
	}
	table := m.Stats().TableSize
	ctl := resilience.NewController(context.Background(), resilience.Budget{MaxLiveNodes: table - 1})
	_, err := b.Eval(q, QueryOptions{Control: ctl})
	if !errors.Is(err, resilience.ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
	if m.Stats().TableSize != table {
		t.Fatalf("table grew to %d past the tripped budget", m.Stats().TableSize)
	}
	if len(b.memo) != 0 || b.MemoNodes() != 0 {
		t.Fatalf("tripped fill left %d entries, %d nodes", len(b.memo), b.MemoNodes())
	}
	for i, wantMiss := range []int64{1, 0} {
		res, err := b.Eval(q, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got := sorted(res.Outputs[0].Tuples())
		st := res.Stats
		res.Close()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d: q = %v, want %v", i, got, want)
		}
		if st.BaseMemoMisses != wantMiss || st.BaseMemoHits != 1-wantMiss {
			t.Fatalf("query %d: %d misses, %d hits", i, st.BaseMemoMisses, st.BaseMemoHits)
		}
	}
	if len(b.memo) != 1 || b.MemoNodes() != need {
		t.Fatalf("memo holds %d entries, %d nodes; want 1, %d", len(b.memo), b.MemoNodes(), need)
	}
}

// TestQueryMemoKeyedByWildcardSet: literals over one relation with
// different `_` positions use different entries, and a literal with no
// `_` reads the base relation itself.
func TestQueryMemoKeyedByWildcardSet(t *testing.T) {
	b, _ := memoBase(t)
	for _, c := range []struct {
		src          string
		hits, misses int64
	}{
		{".relation q (v : V) output\nq(v) :- r(_, v, 3).", 0, 1},
		{".relation q (v : V) output\nq(v) :- r(_, v, 5), r(_, v, h).", 2, 0},
		{".relation q (v : V) output\nq(v) :- r(1, v, _).", 0, 1},
		{".relation q (v : V) output\nq(v) :- r(_, v, _).", 0, 1},
		{".relation q (v : V) output\nq(v) :- r(1, v, 2).", 0, 0},
	} {
		res, err := b.Eval(c.src, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		st := res.Stats
		res.Close()
		if st.BaseMemoHits != c.hits || st.BaseMemoMisses != c.misses {
			t.Fatalf("%s: %d hits, %d misses; want %d, %d", c.src, st.BaseMemoHits, st.BaseMemoMisses, c.hits, c.misses)
		}
	}
	if len(b.memo) != 3 {
		t.Fatalf("memo holds %d entries, want 3", len(b.memo))
	}
}

func dedup(ts [][]uint64) [][]uint64 {
	seen := map[uint64]bool{}
	var out [][]uint64
	for _, tu := range ts {
		if !seen[tu[0]] {
			seen[tu[0]] = true
			out = append(out, tu)
		}
	}
	return out
}
