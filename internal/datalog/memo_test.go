package datalog

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"bddbddb/internal/bdd"
	"bddbddb/internal/rel"
	"bddbddb/internal/resilience"
)

// memoBase builds a QueryBase over one frozen random relation
// r(c : C, v : V, h : H), shaped like vPC, with primary instances of
// each domain in the main blocks; headroom adds that many trailing
// instances of each, as a served replica has.
func memoBase(t *testing.T, primary, headroom int) (*QueryBase, *rel.Relation) {
	t.Helper()
	u := rel.NewUniverse()
	extra := make(map[string]int)
	for _, d := range []string{"C", "V", "H"} {
		u.Declare(d, 64)
		u.EnsureInstances(d, primary)
		extra[d] = headroom
	}
	if err := u.Finalize(rel.FinalizeOptions{Order: []string{"V", "C", "H"}, NodeSize: 1 << 10, ExtraInstances: extra}); err != nil {
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
// memo fill fails that query, leaves no entry for it, and the next
// query fills the memo and answers correctly. On a base with headroom
// the query reads a pivoted entry, over a variable or over a context
// attribute; the flat entry it is built from is filled beforehand, so
// the trip lands in the pivoted build.
func TestQueryMemoFillBudgetTrip(t *testing.T) {
	for _, c := range []struct {
		name        string
		headroom    int
		q, prefill  string
		wild, pivot string // the entry's projected-out and pivoted attribute
		col         int    // the answer's column of r
	}{
		{"flat", 0, ".relation q (v : V) output\nq(v) :- r(_, v, 3).", "", "c", "", 1},
		{"pivot v", 1, ".relation q (v : V) output\nq(v) :- r(_, v, 3).",
			".relation f (h : H) output\nf(h) :- r(_, 5, h).", "c", "v", 1},
		{"pivot c", 1, ".relation q (c : C) output\nq(c) :- r(c, _, 3).",
			".relation f (h : H) output\nf(h) :- r(5, _, h).", "v", "c", 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			b, r := memoBase(t, 1, c.headroom)
			m := b.u.M
			// The fill allocates at least the entry's own nodes; leave the
			// table only half that much room, so the fill must grow the
			// table, which checks the node budget.
			p := r.ProjectOut("p", c.wild)
			flatNodes := m.NodeCount(p.Root())
			need, kept := flatNodes, 0
			if c.pivot != "" {
				res, err := b.Eval(c.prefill, QueryOptions{})
				if err != nil {
					t.Fatal(err)
				}
				res.Close()
				pa := p.Attr(c.pivot)
				pv := p.Rename("pv", map[string]*bdd.Domain{c.pivot: b.u.Phys(pa.Dom.Name, 1)})
				need, kept = m.NodeCount(pv.Root()), 1
				pv.Free()
			}
			var want [][]uint64
			sel := r.SelectEq("sel", "h", 3)
			for _, tu := range sel.Tuples() {
				want = append(want, []uint64{tu[c.col]})
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
			_, err := b.Eval(c.q, QueryOptions{Control: ctl})
			if !errors.Is(err, resilience.ErrBudgetExceeded) {
				t.Fatalf("want ErrBudgetExceeded, got %v", err)
			}
			if m.Stats().TableSize != table {
				t.Fatalf("table grew to %d past the tripped budget", m.Stats().TableSize)
			}
			if len(b.memo) != kept || b.MemoNodes() != kept*flatNodes {
				t.Fatalf("tripped fill left %d entries, %d nodes; want %d, %d", len(b.memo), b.MemoNodes(), kept, kept*flatNodes)
			}
			for i, wantMiss := range []int64{1, 0} {
				res, err := b.Eval(c.q, QueryOptions{})
				if err != nil {
					t.Fatal(err)
				}
				got := sorted(res.Outputs[0].Tuples())
				st := res.Stats
				res.Close()
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("query %d: q = %v, want %v", i, got, want)
				}
				if st.BaseMemoMisses != wantMiss || st.BaseMemoHits != 1-wantMiss || st.BaseMemoPivoted != int64(kept) {
					t.Fatalf("query %d: %d misses, %d hits, %d pivoted", i, st.BaseMemoMisses, st.BaseMemoHits, st.BaseMemoPivoted)
				}
			}
			if len(b.memo) != kept+1 || b.MemoNodes() != kept*flatNodes+need {
				t.Fatalf("memo holds %d entries, %d nodes; want %d, %d", len(b.memo), b.MemoNodes(), kept+1, kept*flatNodes+need)
			}
		})
	}
}

// TestQueryMemoPivot: on a base with a headroom instance per domain, a
// literal that selects or joins on h below its free v reads a pivoted
// entry, keyed apart from the flat entry of the same wildcards, with v
// on the headroom instance and h at the top of the BDD. A query whose
// other variables occupy the headroom instance keeps the flat layout.
// Every answer equals the one a base with the same instances, all in
// the main blocks, gives, and lands on the output relation's own
// instance.
func TestQueryMemoPivot(t *testing.T) {
	b, r := memoBase(t, 1, 1)
	plain, _ := memoBase(t, 2, 0)
	t0 := r.Tuples()[0]
	for _, c := range []struct {
		src                   string
		hits, misses, pivoted int64
	}{
		{".relation q (h : H) output\nq(h) :- r(_, 5, h).", 0, 1, 0},
		{".relation q (v : V) output\nq(v) :- r(_, v, 3).", 0, 1, 1},
		{".relation q (w : V) output\nq(w) :- r(_, 5, h), r(_, w, h).", 2, 0, 1},
		{".relation q (v : V) output\nq(v) :- r(_, v, 7).", 1, 0, 1},
		{".relation q (v : V, c : C) output\nq(v, c) :- r(_, v, 3), r(c, 9, _).", 1, 1, 1},
		{fmt.Sprintf(".relation q (v : V) output\nq(v) :- r(_, v, 3), r(%d, x, %d).", t0[0], t0[2]), 1, 0, 0},
	} {
		var answers [2][][]uint64
		for i, base := range []*QueryBase{b, plain} {
			res, err := base.Eval(c.src, QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			out := res.Outputs[0]
			for j, a := range out.Attrs() {
				if nat := base.u.Phys(a.Dom.Name, naturalInstance(res.s.prog.Relation("q"), j)); a.Phys != nat {
					t.Fatalf("%s: output %s on %s, want %s", c.src, a.Name, a.Phys.Name, nat.Name)
				}
			}
			answers[i] = sorted(out.Tuples())
			st := res.Stats
			res.Close()
			if i == 0 && (st.BaseMemoHits != c.hits || st.BaseMemoMisses != c.misses || st.BaseMemoPivoted != c.pivoted) {
				t.Fatalf("%s: %d hits, %d misses, %d pivoted; want %d, %d, %d",
					c.src, st.BaseMemoHits, st.BaseMemoMisses, st.BaseMemoPivoted, c.hits, c.misses, c.pivoted)
			}
		}
		if len(answers[0]) == 0 || !reflect.DeepEqual(answers[0], answers[1]) {
			t.Fatalf("%s: %v with headroom, %v without", c.src, answers[0], answers[1])
		}
	}
	if len(b.memo) != 3 {
		t.Fatalf("memo holds %d entries, want 3", len(b.memo))
	}
	e := b.memo[memoKey{rel: "r", wild: "c", pivot: "v=V1"}]
	if !e.pivoted {
		t.Fatalf("no pivoted entry among %v", b.memo)
	}
	if v := e.r.Attr("v"); v.Phys != b.u.Phys("V", 1) {
		t.Fatalf("pivoted v on %s, want V1", v.Phys.Name)
	}
	if top, h := b.u.M.Level(e.r.Root()), slices.Min(b.u.Phys("H", 0).Levels()); top != h {
		t.Fatalf("pivoted entry's top level %d, want h's %d", top, h)
	}
}

// TestQueryMemoDenseProjectionStaysFlat: a projection with more than
// pivotRowsPerNode rows per node is not listed. Here every (v, h) pair
// of the base holds under all 64 contexts, so ∃v.r is C × {h}, a few
// nodes over thousands of rows; q(c) :- r(c, _, 3) would pivot c, but
// its key holds the flat entry, counted once, and the answer is still
// every context.
func TestQueryMemoDenseProjectionStaysFlat(t *testing.T) {
	b, _ := memoBase(t, 1, 1)
	u := b.u
	r := u.NewRelation("d", u.A("c", "C", 0), u.A("v", "V", 0), u.A("h", "H", 0))
	var rows [][]uint64
	for c := uint64(0); c < 64; c++ {
		for i := uint64(0); i < 50; i++ {
			rows = append(rows, []uint64{c, i, i % 7})
		}
	}
	r.AddTuples(rows)
	r.Freeze()
	b = NewQueryBase(u, []*rel.Relation{r})
	const q = ".relation q (c : C) output\nq(c) :- d(c, _, 3)."
	for i, wantMiss := range []int64{1, 0} {
		res, err := b.Eval(q, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		n := len(res.Outputs[0].Tuples())
		st := res.Stats
		res.Close()
		if n != 64 {
			t.Fatalf("query %d: %d contexts, want 64", i, n)
		}
		if st.BaseMemoMisses != wantMiss || st.BaseMemoHits != 1-wantMiss || st.BaseMemoPivoted != 0 {
			t.Fatalf("query %d: %d misses, %d hits, %d pivoted", i, st.BaseMemoMisses, st.BaseMemoHits, st.BaseMemoPivoted)
		}
	}
	flat, e := b.memo[memoKey{rel: "d", wild: "v"}], b.memo[memoKey{rel: "d", wild: "v", pivot: "c=C1"}]
	if flat.r == nil || e.r != flat.r || e.pivoted {
		t.Fatalf("pivot key holds %+v, flat key %+v", e, flat)
	}
	if rows, nodes := flat.r.SizeFloat(), u.M.NodeCount(flat.r.Root()); rows <= float64(pivotRowsPerNode*nodes) {
		t.Fatalf("flat entry: %v rows over %d nodes is not dense", rows, nodes)
	}
	if b.MemoNodes() != u.M.NodeCount(flat.r.Root()) {
		t.Fatalf("memo counts %d nodes, want the flat entry's %d", b.MemoNodes(), u.M.NodeCount(flat.r.Root()))
	}
}

// TestQueryMemoKeyedByWildcardSet: literals over one relation with
// different `_` positions use different entries, and a literal with no
// `_` reads the base relation itself.
func TestQueryMemoKeyedByWildcardSet(t *testing.T) {
	b, _ := memoBase(t, 1, 0)
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
