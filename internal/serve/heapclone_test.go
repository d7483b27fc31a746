package serve

import (
	"net/http/httptest"
	"testing"

	"bddbddb/internal/datalog"
)

// newTestHTTP wires an already-built Server to an httptest listener.
func newTestHTTP(t testing.TB, s *Server) string {
	t.Helper()
	hs := httptest.NewServer(s)
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return hs.URL
}

// heapSolver solves a miniature heap-cloned program (the Algorithm 8
// shape): cvP carries a heap context, and vPC is its projection. Heap
// object h0 exists in two clones — hc1 (reached by v0 and v2) and hc2
// (reached by v1) — so heap-sensitive aliasing separates v1 from v0
// even though every variable points to "the same" allocation site.
func heapSolver(t testing.TB) *datalog.Solver {
	t.Helper()
	src := `
.domain V 8 v.map
.domain H 4 h.map
.domain C 4 c.map
.domain HC 4 hc.map
.bddvarorder V_C+HC_H

.relation cvP0 (context : C, variable : V, hctx : HC, heap : H) input
.relation cvP (context : C, variable : V, hctx : HC, heap : H) output
.relation vPC (context : C, variable : V, heap : H) output

cvP(c, v, hc, h) :- cvP0(c, v, hc, h).
vPC(c, v, h)     :- cvP(c, v, _, h).
`
	prog, diags, err := datalog.ParseAndCheck("heapmini.dl", src)
	if err != nil {
		t.Fatal(err)
	}
	if diags.HasErrors() {
		t.Fatal(diags)
	}
	s, err := datalog.NewSolver(prog, datalog.Options{
		ElemNames: map[string][]string{
			"V":  {"v0", "v1", "v2", "v3", "v4", "v5", "v6", "v7"},
			"H":  {"h0", "h1", "h2", "h3"},
			"C":  {"c0", "c1", "c2", "c3"},
			"HC": {"hc0", "hc1", "hc2", "hc3"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	cvP0 := s.Relation("cvP0")
	cvP0.AddTuple(1, 0, 1, 0) // v0 -> clone hc1 of h0
	cvP0.AddTuple(1, 1, 2, 0) // v1 -> clone hc2 of h0
	cvP0.AddTuple(2, 2, 1, 0) // v2 -> clone hc1 of h0 (aliases v0)
	if err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestHeapClonedTemplates: snapshots holding cvP must serve the
// heap-sensitive canned queries — /pointsto reports each clone with
// its heap context, and /aliases matches on the (hctx, heap) pair
// instead of the bare heap object.
func TestHeapClonedTemplates(t *testing.T) {
	s, err := New(heapSolver(t), Config{Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	hs := newTestHTTP(t, s)

	code, body, _ := get(t, hs+"/pointsto?var=v0")
	if code != 200 {
		t.Fatalf("pointsto: %d %s", code, body)
	}
	if got := attrValues(t, body, "hctx"); len(got) != 1 || got[0] != "hc1" {
		t.Fatalf("pointsto hctx = %v, want [hc1]", got)
	}
	if got := attrValues(t, body, "heap"); len(got) != 1 || got[0] != "h0" {
		t.Fatalf("pointsto heap = %v, want [h0]", got)
	}

	code, body, _ = get(t, hs+"/aliases?var=v0")
	if code != 200 {
		t.Fatalf("aliases: %d %s", code, body)
	}
	got := attrValues(t, body, "alias")
	if len(got) != 2 || got[0] != "v0" || got[1] != "v2" {
		t.Fatalf("aliases = %v, want [v0 v2] (v1 holds a different clone of h0)", got)
	}

	// The projection-level query still conflates the clones — the
	// contrast that makes the canned template's refinement visible.
	code, body = post(t, hs+"/query", `.relation flat (alias : V) output
flat(v) :- vPC(_, "v0", h), vPC(_, v, h).`)
	if code != 200 {
		t.Fatalf("query: %d %s", code, body)
	}
	if got := attrValues(t, body, "alias"); len(got) != 3 {
		t.Fatalf("projected aliases = %v, want all three variables", got)
	}
}
