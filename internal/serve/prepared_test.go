package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"strings"
	"testing"

	"bddbddb/internal/obs"
)

// diffPair runs one request sequence against two servers over the same
// snapshot, one replica each and no result cache. prepared keeps the
// query shapes it prepares; before every request fresh drops its
// replica's shapes (QueryBase.ReleaseShapes) but keeps the memo, so it
// runs the front end for every query while both memos see the same
// history.
type diffPair struct {
	prepared, fresh *Server
	n               int
}

func newDiffPair(t *testing.T, newServer func(cfg Config) *Server) *diffPair {
	t.Helper()
	cfg := Config{Replicas: 1, CacheEntries: -1, SampleInterval: -1}
	d := &diffPair{}
	for _, s := range []**Server{&d.prepared, &d.fresh} {
		cfg.Metrics = obs.New()
		*s = newServer(cfg)
		t.Cleanup((*s).Close)
	}
	return d
}

// solveMs is the one field of a response that differs between runs.
var solveMs = regexp.MustCompile(`"solve_ms":[0-9.e-]+`)

// do sends one request to both servers and requires the same status,
// the same body apart from solve_ms, and the same memo hit, miss and
// pivoted counts. It returns the prepared server's body.
func (d *diffPair) do(t *testing.T, method, target, body string) string {
	t.Helper()
	g := d.fresh.current()
	g.pool.onWorkers(func(_ int, v views) {
		for _, rep := range v {
			rep.Base.ReleaseShapes()
		}
	})
	d.n++
	var codes [2]int
	var bodies [2]string
	for i, s := range []*Server{d.prepared, d.fresh} {
		req := httptest.NewRequest(method, target, strings.NewReader(body))
		req.Header.Set("X-Request-Id", fmt.Sprintf("diff-%d", d.n))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		codes[i], bodies[i] = rec.Code, solveMs.ReplaceAllString(rec.Body.String(), `"solve_ms":0`)
	}
	if codes[0] != codes[1] || bodies[0] != bodies[1] {
		t.Fatalf("%s %s %q:\nprepared %d %s\nfresh    %d %s", method, target, body, codes[0], bodies[0], codes[1], bodies[1])
	}
	for _, k := range []string{"hits", "misses", "pivoted"} {
		key := "serve.query.base_memo_" + k
		if p, f := d.prepared.reg.Snapshot()[key], d.fresh.reg.Snapshot()[key]; p != f {
			t.Fatalf("%s %q: %s prepared %v, fresh %v", target, body, key, p, f)
		}
	}
	return bodies[0]
}

func (d *diffPair) query(t *testing.T, src string) string {
	t.Helper()
	return d.do(t, http.MethodPost, "/query", src)
}

// shapeVariants generates ad-hoc queries over the points-to relation
// of shape sh, with v a variable name and h a heap name: constants in
// every argument position, by name and by number, in range and out of
// it, in heads and in facts, under negation, unknown names, layouts
// that move the constants, and queries the base rejects.
func shapeVariants(sh shape, v, h string, k int) []string {
	// pt renders the points-to literal with the given context,
	// variable, heap-context and heap arguments.
	pt := func(c, vv, hc, hh string) string {
		switch {
		case sh.hasVP:
			return fmt.Sprintf("vP(%s, %s)", vv, hh)
		case sh.hasCVP:
			return fmt.Sprintf("cvP(%s, %s, %s, %s)", c, vv, hc, hh)
		}
		return fmt.Sprintf("vPC(%s, %s, %s)", c, vv, hh)
	}
	qv, qh := quoted(v), quoted(h)
	n := fmt.Sprint
	out := []string{
		".relation q (heap : H) output\nq(x) :- " + pt("_", qv, "_", "x") + ".",
		".relation q (variable : V) output\nq(x) :- " + pt("_", "x", "_", qh) + ".",
		".relation q (variable : V) output\nq(x) :- " + pt("_", "x", "_", n(k)) + ".",
		".relation q (heap : H) output\nq(x) :- " + pt("_", n(k), "_", "x") + ".",
		".relation q (variable : V, heap : H) output\nq(" + qv + ", x) :- " + pt("_", qv, "_", "x") + ".",
		".relation q (variable : V, heap : H) output\nq(" + n(k) + ", x) :- " + pt("_", qv, "_", "x") + ".",
		".relation q (variable : V) output\nq(" + qv + ").\nq(" + n(k) + ").",
		// Out of range, twice, and a number no uint64 holds.
		".relation q (heap : H) output\nq(x) :- " + pt("_", "99999999", "_", "x") + ".",
		".relation q (variable : V, heap : H) output\nq(99999999, x) :- " + pt("_", "88888888", "_", "x") + ".",
		".relation q (heap : H) output\nq(x) :- " + pt("_", "123456789012345678901234567890", "_", "x") + ".",
		// Unknown names, in a body and in a fact, with layouts that move
		// the constant's position.
		".relation q (heap : H) output\nq(x) :- " + pt("_", quoted("no such "+v), "_", "x") + ".",
		".relation q (heap : H) output\n\n  q(x)   :-\n    " + pt("_", quoted("nosuch"), "_", "x") + ". # again",
		".relation q (variable : V) output\nq(" + quoted("nosuch") + ").",
		// Two constants, and a join on a constant-selected literal.
		".relation q (variable : V) output\nq(x) :- " + pt("_", qv, "_", "y") + ", " + pt("_", "x", "_", "y") + ", " + pt("_", "x", "_", qh) + ".",
		// Negation.
		".relation q (variable : V, heap : H) output\nq(x, y) :- " + pt("c", "x", "hc", "y") + ", !" + pt("c", "x", "hc", qh) + ".",
		// Two strata, more V instances than the replica has, no output.
		".relation a (variable : V)\n.relation q (variable : V) output\na(x) :- " + pt("_", "x", "_", qh) + ".\nq(x) :- a(x).",
		".relation q (a : V, b : V, c : V, d : V, e : V, f : V) output\nq(a, b, c, d, e, f) :- " + pt("_", "a", "_", qh) + ", " + pt("_", "b", "_", qh) + ", " + pt("_", "c", "_", qh) + ", " + pt("_", "d", "_", qh) + ", " + pt("_", "e", "_", qh) + ", " + pt("_", "f", "_", qh) + ".",
		".relation q (heap : H)\nq(x) :- " + pt("_", qv, "_", "x") + ".",
	}
	if !sh.hasVP {
		// A context constant.
		out = append(out, ".relation q (variable : V) output\nq(x) :- "+pt(n(k%2), "x", "_", qh)+".")
	}
	return out
}

// namesOf lists up to n element names of domain dom that a query can
// quote and the server knows.
func namesOf(s *Server, dom string, all []string, n int) []string {
	var out []string
	for _, name := range all {
		if _, ok := s.current().val.ElemIndex(dom, name); ok && exprName(name) && len(out) < n {
			out = append(out, name)
		}
	}
	return out
}

// TestPreparedShapesMatchFresh: a query answered from a prepared shape
// — its front end run for an earlier query of the same shape, its own
// constants bound — answers exactly as the front end run on its own
// text: the same outputs, counts, stats and memo counts, and errors of
// the same class, text and positions. The sequence repeats each shape
// with other constants, on the serve tests' canned queries and on
// generated variants, for each points-to layout.
func TestPreparedShapesMatchFresh(t *testing.T) {
	for _, algo := range []string{"ci", "cs", "heap-cs"} {
		t.Run(algo, func(t *testing.T) {
			res, facts := synthSolve(t, algo)
			d := newDiffPair(t, func(cfg Config) *Server {
				s, err := New(res.Solver, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return s
			})
			sh := d.prepared.current().sh
			vars := namesOf(d.prepared, "V", facts.Vars, 3)
			heaps := namesOf(d.prepared, "H", facts.Heaps, 3)
			for round := range 3 {
				v, h := vars[round%len(vars)], heaps[(round+1)%len(heaps)]
				d.do(t, http.MethodGet, "/pointsto?var="+url.QueryEscape(v), "")
				d.do(t, http.MethodGet, "/aliases?var="+url.QueryEscape(v), "")
				d.do(t, http.MethodGet, "/whodunnit?heap="+url.QueryEscape(h), "")
				for _, q := range shapeVariants(sh, v, h, round+1) {
					d.query(t, q)
				}
			}
		})
	}
}

// TestPreparedShapesAcrossGenerations: each generation's replica view
// prepares its own shapes, so a shape asked before a live update
// answers from the updated relations after it, exactly as the front
// end run afresh.
func TestPreparedShapesAcrossGenerations(t *testing.T) {
	d := newDiffPair(t, func(cfg Config) *Server {
		s, _, _ := liveServer(t, cfg)
		return s
	})
	// The serve tests' queries over the mini program, then updates.
	queries := []string{
		".relation q (heap : H) output\nq(h) :- hP(h0, f, h).",
		".relation q (v : V) output\nq(v) :- vP(v, \"h1\").",
		".relation q (variable : V) output\nq(v) :- vP(v, _).",
		".relation q (base : H) output\nq(b) :- hP(b, _, \"h2\").",
	}
	run := func(v, h string) {
		for _, q := range queries {
			d.query(t, q)
		}
		d.do(t, http.MethodGet, "/pointsto?var="+v, "")
		d.do(t, http.MethodGet, "/aliases?var="+v, "")
		d.do(t, http.MethodGet, "/whodunnit?heap="+h, "")
		for _, q := range shapeVariants(d.prepared.current().sh, v, h, 3) {
			d.query(t, q)
		}
	}
	run("v3", "h2")
	for i, delta := range []string{
		`{"add":{"vP0":[["v6","h3"]],"store":[["v6","f1","v2"]]}}`,
		`{"add":{"assign":[["v7","v6"]]},"remove":{"vP0":[["v0","h0"]]}}`,
	} {
		for _, s := range []*Server{d.prepared, d.fresh} {
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/update", strings.NewReader(delta)))
			if rec.Code != http.StatusOK {
				t.Fatalf("update %s: %d %s", delta, rec.Code, rec.Body)
			}
		}
		run("v6", "h3")
		run(fmt.Sprintf("v%d", i+3), "h2")
	}
	if body := d.query(t, queries[2]); !strings.Contains(body, `"v7"`) {
		t.Fatalf("after the updates, vP(v, _) misses v7: %s", body)
	}
}
