package serve

import (
	"encoding/json"
	"fmt"
	"net/url"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"bddbddb/internal/analysis"
	"bddbddb/internal/datalog"
	"bddbddb/internal/extract"
	"bddbddb/internal/obs"
	"bddbddb/internal/synth"
)

// This file checks the query base's wildcard-projection memo end to end
// on hydrated replicas: answers against a Go-map model of the frozen
// relations, entries across collections and generations, and
// concurrent traffic.

// synthSolve runs one analysis over the quick synthetic program.
func synthSolve(t testing.TB, algo string) (*analysis.Result, *extract.Facts) {
	t.Helper()
	facts, err := extract.Extract(synth.Generate(synth.Quick), extract.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := analysis.Run(algo, facts, analysis.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return res, facts
}

// hydrated snapshots a solved result and hydrates one replica with the
// daemon's default query headroom.
func hydrated(t testing.TB, res *analysis.Result) *Replica {
	t.Helper()
	snap, err := NewSnapshot(res.Solver)
	if err != nil {
		t.Fatal(err)
	}
	extra := make(map[string]int)
	for _, dm := range snap.domains {
		extra[dm.name] = 1
	}
	rep, err := snap.Hydrate(extra)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// term is one argument of a model literal: a variable, a wildcard (""
// var, no name), or a named constant.
type term struct{ v, name string }

func tv(v string) term    { return term{v: v} }
func tc(name string) term { return term{name: name} }

var wild = term{}

// lit is one body literal of a model query.
type lit struct {
	pred string
	args []term
	neg  bool
}

// modelQuery is a one-rule conjunctive query with its Datalog text.
type modelQuery struct {
	head []string
	body []lit
}

// text renders the query against the replica's schema: the output
// relation q takes each head variable's domain from its first body
// occurrence.
func (q modelQuery) text(rep *Replica) string {
	dom := map[string]string{}
	var body []string
	for _, l := range q.body {
		attrs := rep.Rels[l.pred].Attrs()
		var args []string
		for i, a := range l.args {
			switch {
			case a.v != "":
				if dom[a.v] == "" {
					dom[a.v] = attrs[i].Dom.Name
				}
				args = append(args, a.v)
			case a.name != "":
				args = append(args, quoted(a.name))
			default:
				args = append(args, "_")
			}
		}
		s := l.pred + "(" + strings.Join(args, ", ") + ")"
		if l.neg {
			s = "!" + s
		}
		body = append(body, s)
	}
	var decl []string
	for i, v := range q.head {
		decl = append(decl, fmt.Sprintf("a%d : %s", i, dom[v]))
	}
	return fmt.Sprintf(".relation q (%s) output\nq(%s) :- %s.\n",
		strings.Join(decl, ", "), strings.Join(q.head, ", "), strings.Join(body, ", "))
}

// eval answers the query by nested loops over the frozen relations'
// tuples, as sorted rendered head tuples.
func (q modelQuery) eval(t testing.TB, rep *Replica) []string {
	t.Helper()
	match := func(l lit, tuple []uint64, b map[string]uint64) (map[string]uint64, bool) {
		next := make(map[string]uint64, len(b)+len(l.args))
		for k, v := range b {
			next[k] = v
		}
		attrs := rep.Rels[l.pred].Attrs()
		for i, a := range l.args {
			switch {
			case a.v != "":
				if have, ok := next[a.v]; ok && have != tuple[i] {
					return nil, false
				}
				next[a.v] = tuple[i]
			case a.name != "":
				want, ok := rep.Base.ElemIndex(attrs[i].Dom.Name, a.name)
				if !ok {
					t.Fatalf("model constant %q not in domain %s", a.name, attrs[i].Dom.Name)
				}
				if tuple[i] != want {
					return nil, false
				}
			}
		}
		return next, true
	}
	binds := []map[string]uint64{{}}
	for _, l := range q.body {
		tuples := rep.Rels[l.pred].Tuples()
		var out []map[string]uint64
		for _, b := range binds {
			found := false
			for _, tup := range tuples {
				next, ok := match(l, tup, b)
				if !ok {
					continue
				}
				if l.neg {
					found = true
					break
				}
				out = append(out, next)
			}
			if l.neg && !found {
				out = append(out, b)
			}
		}
		binds = out
	}
	set := map[string]bool{}
	for _, b := range binds {
		parts := make([]string, len(q.head))
		for i, v := range q.head {
			parts[i] = fmt.Sprint(b[v])
		}
		set[strings.Join(parts, ",")] = true
	}
	return sortedKeys(set)
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// evalText runs query text on the replica and renders its one output
// like modelQuery.eval does.
func evalText(t testing.TB, rep *Replica, src string) ([]string, datalog.SolverStats) {
	t.Helper()
	res, err := rep.Base.Eval(src, datalog.QueryOptions{})
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	defer res.Close()
	set := map[string]bool{}
	for _, tup := range res.Outputs[0].Tuples() {
		parts := make([]string, len(tup))
		for i, v := range tup {
			parts[i] = fmt.Sprint(v)
		}
		set[strings.Join(parts, ",")] = true
	}
	return sortedKeys(set), res.Stats
}

// pointsToNames returns a few variable names and heap names that occur
// in the solved points-to relation, spread over its tuples.
func pointsToNames(rep *Replica, pred string, vi, hi int) (vars, heaps []string) {
	r := rep.Rels[pred]
	attrs := r.Attrs()
	tuples := r.Tuples()
	seenV, seenH := map[string]bool{}, map[string]bool{}
	for i := 0; i < len(tuples) && (len(vars) < 4 || len(heaps) < 4); i += 1 + len(tuples)/16 {
		v := attrs[vi].Dom.ElemName(tuples[i][vi])
		h := attrs[hi].Dom.ElemName(tuples[i][hi])
		if !seenV[v] && len(vars) < 4 {
			seenV[v] = true
			vars = append(vars, v)
		}
		if !seenH[h] && len(heaps) < 4 {
			seenH[h] = true
			heaps = append(heaps, h)
		}
	}
	return vars, heaps
}

// cannedModels are the canned templates as model queries, per shape,
// in the order shapeOf's templates choose them.
func cannedModels(sh shape, v, h string) map[string]modelQuery {
	out := map[string]modelQuery{}
	switch {
	case sh.hasVP:
		out["pointsto"] = modelQuery{[]string{"h"}, []lit{{pred: "vP", args: []term{tc(v), tv("h")}}}}
		out["aliases"] = modelQuery{[]string{"v"}, []lit{
			{pred: "vP", args: []term{tc(v), tv("h")}}, {pred: "vP", args: []term{tv("v"), tv("h")}}}}
	case sh.hasCVP:
		out["pointsto"] = modelQuery{[]string{"hc", "h"}, []lit{{pred: "cvP", args: []term{wild, tc(v), tv("hc"), tv("h")}}}}
		out["aliases"] = modelQuery{[]string{"v"}, []lit{
			{pred: "cvP", args: []term{wild, tc(v), tv("hc"), tv("h")}},
			{pred: "cvP", args: []term{wild, tv("v"), tv("hc"), tv("h")}}}}
	case sh.hasVPC:
		out["pointsto"] = modelQuery{[]string{"h"}, []lit{{pred: "vPC", args: []term{wild, tc(v), tv("h")}}}}
		out["aliases"] = modelQuery{[]string{"v"}, []lit{
			{pred: "vPC", args: []term{wild, tc(v), tv("h")}}, {pred: "vPC", args: []term{wild, tv("v"), tv("h")}}}}
	}
	store := lit{pred: "store", args: []term{tv("v1"), tv("f"), tv("v2")}}
	switch {
	case sh.hasVPC:
		out["whodunnit"] = modelQuery{[]string{"c", "v1", "f", "v2"}, []lit{store,
			{pred: "vPC", args: []term{tv("c"), tv("v2"), tc(h)}}}}
	case sh.hasVP:
		out["whodunnit"] = modelQuery{[]string{"v1", "f", "v2"}, []lit{store,
			{pred: "vP", args: []term{tv("v2"), tc(h)}}}}
	}
	return out
}

// TestMemoAnswersMatchMapModel: every canned template, on ci, cs and
// heap-cs replicas, and ad-hoc queries mixing `_`, constants and
// repeated variables answer exactly what a nested-loop evaluation of
// the frozen relations gives — on the query that fills the memo and
// on the repeat that reads it. On cs and heap-cs, checkPivots first
// pins which queries read pivoted entries.
func TestMemoAnswersMatchMapModel(t *testing.T) {
	for _, algo := range []string{"ci", "cs", "heap-cs"} {
		t.Run(algo, func(t *testing.T) {
			res, _ := synthSolve(t, algo)
			rep := hydrated(t, res)
			sh := shapeOf(rep.Base.HasRelation)
			var hits int64
			check := func(name, src string, q modelQuery) {
				t.Helper()
				want := q.eval(t, rep)
				for round := 0; round < 2; round++ {
					got, st := evalText(t, rep, src)
					hits += st.BaseMemoHits
					if strings.Join(got, " ") != strings.Join(want, " ") {
						t.Fatalf("%s round %d: %d answers, model %d\nquery: %s\ngot  %v\nwant %v",
							name, round, len(got), len(want), src, got, want)
					}
				}
			}
			pred, vi, hi := "vPC", 1, 2
			switch {
			case sh.hasVP:
				pred, vi, hi = "vP", 0, 1
			case sh.hasCVP:
				pred, vi, hi = "cvP", 1, 3
			}
			vars, heaps := pointsToNames(rep, pred, vi, hi)
			if len(vars) < 2 || len(heaps) < 2 {
				t.Fatalf("%s: too few names in %s: %v %v", algo, pred, vars, heaps)
			}
			if pred != "vP" {
				checkPivots(t, rep, sh, pred, vars, heaps)
			}
			for i := range vars {
				v, h := vars[i], heaps[i%len(heaps)]
				templates := map[string]func(string) (string, error){
					"pointsto": sh.pointstoQuery, "aliases": sh.aliasesQuery,
				}
				for name, q := range cannedModels(sh, v, h) {
					build, arg := templates[name], v
					if name == "whodunnit" {
						build, arg = sh.whodunnitQuery, h
					}
					src, err := build(arg)
					if err != nil {
						t.Fatal(err)
					}
					check(name+" "+arg, src, q)
				}
			}
			if !sh.hasVPC {
				return
			}
			h := heaps[0]
			adhoc := []modelQuery{
				{[]string{"v"}, []lit{{pred: "vPC", args: []term{wild, tv("v"), tc(h)}}}},
				{[]string{"v", "w"}, []lit{{pred: "vPC", args: []term{wild, tv("v"), tv("h")}}, {pred: "vPC", args: []term{wild, tv("w"), tv("h")}}}},
				{[]string{"v"}, []lit{{pred: "vPC", args: []term{wild, tv("v"), wild}}}},
				{[]string{"c"}, []lit{{pred: "vPC", args: []term{tv("c"), wild, tc(h)}}}},
				{[]string{"h"}, []lit{{pred: "hP", args: []term{tv("h"), wild, tv("h")}}}},
				{[]string{"f"}, []lit{{pred: "hP", args: []term{tv("h"), tv("f"), tv("h")}}, {pred: "vPC", args: []term{wild, wild, tv("h")}}}},
				{[]string{"c", "m"}, []lit{{pred: "IEC", args: []term{tv("c"), wild, tv("c"), tv("m")}}}},
				{[]string{"c"}, []lit{{pred: "assignC", args: []term{tv("c"), tv("v"), wild, tv("v")}}}},
				{[]string{"v", "h"}, []lit{{pred: "vPC", args: []term{wild, tv("v"), tv("h")}}, {pred: "hP", args: []term{tv("h"), wild, wild}}}},
				{[]string{"v", "h"}, []lit{{pred: "vPC", args: []term{wild, tv("v"), tv("h")}}, {pred: "vPfilter", args: []term{tv("v"), tv("h")}, neg: true}}},
			}
			for i, q := range adhoc {
				check(fmt.Sprintf("adhoc %d", i), q.text(rep), q)
			}
			if hits == 0 || rep.Base.MemoNodes() == 0 {
				t.Fatalf("memo unused: %d hits, %d nodes", hits, rep.Base.MemoNodes())
			}
		})
	}
}

// checkPivots runs, on a replica's fresh memo, canned and heap queries
// over pred (vPC or cvP) in a fixed order and checks each answer
// against the model and each query's memo outcome. A /pointsto fills
// the flat entry; a heap selection or the alias join's second literal
// fills a pivoted entry beside it, with the variable on the headroom
// instance; repeats read them. A heap query whose other literals
// occupy every V instance keeps the flat layout.
func checkPivots(t *testing.T, rep *Replica, sh shape, pred string, vars, heaps []string) {
	t.Helper()
	canned := func(name, v string) (string, modelQuery) {
		src, err := map[string]func(string) (string, error){"pointsto": sh.pointstoQuery, "aliases": sh.aliasesQuery}[name](v)
		if err != nil {
			t.Fatal(err)
		}
		return src, cannedModels(sh, v, heaps[0])[name]
	}
	heap := func(h string) (string, modelQuery) {
		args := []term{wild, tv("v"), tc(h)}
		if pred == "cvP" {
			args = []term{wild, tv("v"), wild, tc(h)}
		}
		q := modelQuery{[]string{"v"}, []lit{{pred: pred, args: args}}}
		return q.text(rep), q
	}
	type step struct {
		name                  string
		src                   string
		q                     modelQuery
		hits, misses, pivoted int64
	}
	var steps []step
	add := func(name string, hits, misses, pivoted int64, src string, q modelQuery) {
		steps = append(steps, step{name, src, q, hits, misses, pivoted})
	}
	ptsSrc, ptsQ := canned("pointsto", vars[0])
	aliasSrc, aliasQ := canned("aliases", vars[1])
	h0Src, h0Q := heap(heaps[0])
	h1Src, h1Q := heap(heaps[1])
	add("pointsto", 0, 1, 0, ptsSrc, ptsQ)
	if pred == "vPC" {
		add("heap", 0, 1, 1, h0Src, h0Q)
		add("aliases", 2, 0, 1, aliasSrc, aliasQ)
	} else {
		// The heap selection drops hctx as well, so its entries differ
		// from the alias join's.
		add("aliases", 1, 1, 1, aliasSrc, aliasQ)
		add("heap", 0, 1, 1, h0Src, h0Q)
	}
	add("heap again", 1, 0, 1, h1Src, h1Q)
	// Every V instance taken: v keeps its natural one, and one vP0
	// literal per other instance binds a variable of its own.
	vP0 := rep.Rels["vP0"]
	hp := vP0.Attrs()[1].Dom.ElemName(vP0.Tuples()[0][1])
	full := h0Q
	full.body = slices.Clone(full.body)
	for i := 1; i < rep.U.Domain("V").Instances(); i++ {
		full.body = append(full.body, lit{pred: "vP0", args: []term{tv(fmt.Sprintf("x%d", i)), tc(hp)}})
	}
	add("every V instance", 1, 0, 0, full.text(rep), full)
	for _, st := range steps {
		want := st.q.eval(t, rep)
		got, stats := evalText(t, rep, st.src)
		if strings.Join(got, " ") != strings.Join(want, " ") || len(got) == 0 {
			t.Fatalf("%s: %d answers, model %d\nquery: %s\ngot  %v\nwant %v", st.name, len(got), len(want), st.src, got, want)
		}
		if stats.BaseMemoHits != st.hits || stats.BaseMemoMisses != st.misses || stats.BaseMemoPivoted != st.pivoted {
			t.Fatalf("%s: %d hits, %d misses, %d pivoted; want %d, %d, %d\nquery: %s", st.name,
				stats.BaseMemoHits, stats.BaseMemoMisses, stats.BaseMemoPivoted, st.hits, st.misses, st.pivoted, st.src)
		}
	}
}

// TestMemoSurvivesGC: memo entries are referenced, so a collection
// keeps them and the next query reads them instead of refilling.
func TestMemoSurvivesGC(t *testing.T) {
	res, _ := synthSolve(t, "cs")
	rep := hydrated(t, res)
	_, heaps := pointsToNames(rep, "vPC", 1, 2)
	q := modelQuery{[]string{"v"}, []lit{{pred: "vPC", args: []term{wild, tv("v"), tc(heaps[0])}}}}
	want := q.eval(t, rep)
	got, st := evalText(t, rep, q.text(rep))
	if st.BaseMemoMisses != 1 || st.BaseMemoHits != 0 {
		t.Fatalf("first query: %d misses, %d hits; want 1, 0", st.BaseMemoMisses, st.BaseMemoHits)
	}
	nodes := rep.Base.MemoNodes()
	rep.U.M.GC()
	rep.gcProduced = -1 << 40 // make MaybeGC collect too
	rep.MaybeGC()
	if gcs := rep.U.M.Stats().GCs; gcs < 2 {
		t.Fatalf("%d collections, want 2", gcs)
	}
	for _, src := range []string{q.text(rep), strings.Replace(q.text(rep), heaps[0], heaps[1], 1)} {
		got, st = evalText(t, rep, src)
		if st.BaseMemoMisses != 0 || st.BaseMemoHits != 1 {
			t.Fatalf("after GC: %d misses, %d hits; want 0, 1", st.BaseMemoMisses, st.BaseMemoHits)
		}
	}
	got, _ = evalText(t, rep, q.text(rep))
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("after GC: got %v, want %v", got, want)
	}
	if rep.Base.MemoNodes() != nodes {
		t.Fatalf("memo nodes %d after GC, want %d", rep.Base.MemoNodes(), nodes)
	}
}

// TestMaybeGCCollectsOnAllocationSinceLastGC: MaybeGC waits until the
// nodes allocated since the last collection exceed half the free space
// it left, then collects and measures again from there.
func TestMaybeGCCollectsOnAllocationSinceLastGC(t *testing.T) {
	res, _ := synthSolve(t, "cs")
	rep := hydrated(t, res)
	m := rep.U.M
	if free := m.Stats().TableSize - m.LiveNodes(); rep.gcFree != free {
		t.Fatalf("hydration free space %d, want %d", rep.gcFree, free)
	}
	rep.MaybeGC()
	if m.Stats().GCs != 0 {
		t.Fatal("collected with nothing allocated")
	}
	rep.gcProduced -= int64(rep.gcFree/2) + 1
	rep.MaybeGC()
	if m.Stats().GCs != 1 {
		t.Fatal("did not collect past the threshold")
	}
	if rep.gcProduced != m.ProducedNodes() || rep.gcFree != m.Stats().TableSize-m.LiveNodes() {
		t.Fatal("collection point not recorded")
	}
}

// TestMemoEmptyAfterUpdate: a live update hydrates a new generation
// with an empty memo, and the first queries there refill it from the
// updated relations — the flat entry of vP(v, _) and the pivoted entry
// of hP(b, _, "h2"), whose bound target lies below its free base.
func TestMemoEmptyAfterUpdate(t *testing.T) {
	reg := obs.New()
	_, hs, _ := liveServer(t, Config{Replicas: 1, MaxInFlight: 8, Metrics: reg, SampleInterval: -1})
	const q = ".relation q (variable : V) output\nq(v) :- vP(v, _)."
	const pq = ".relation q (base : H) output\nq(b) :- hP(b, _, \"h2\")."
	gauge := func() float64 { return reg.Snapshot()["serve.replica.0.base_memo_nodes"] }
	counter := func(k string) float64 { return reg.Snapshot()["serve.query.base_memo_"+k] }
	bases := func() string {
		t.Helper()
		code, body := post(t, hs.URL+"/query", pq)
		if code != 200 {
			t.Fatalf("pivoted query: %d %s", code, body)
		}
		got := attrValues(t, body, "base")
		sortStrings(got)
		return strings.Join(got, " ")
	}

	code, body := post(t, hs.URL+"/query", q)
	if code != 200 || slices.Contains(attrValues(t, body, "variable"), "v6") {
		t.Fatalf("pre-update query: %d %s", code, body)
	}
	if got := bases(); got != "h1" {
		t.Fatalf("pre-update pivoted query: %q, want h1", got)
	}
	waitFor(t, "memo gauge", func() bool { return gauge() > 0 })
	if counter("misses") != 2 || counter("hits") != 0 || counter("pivoted") != 1 {
		t.Fatalf("pre-update memo counters: %v misses, %v hits, %v pivoted", counter("misses"), counter("hits"), counter("pivoted"))
	}
	if code, body = post(t, hs.URL+"/update", `{"add":{"vP0":[["v6","h3"]],"store":[["v6","f1","v2"]]}}`); code != 200 {
		t.Fatalf("update: %d %s", code, body)
	}
	if g := gauge(); g != 0 {
		t.Fatalf("new generation's memo gauge = %v, want 0", g)
	}
	code, body = post(t, hs.URL+"/query", q)
	if code != 200 || !slices.Contains(attrValues(t, body, "variable"), "v6") {
		t.Fatalf("post-update query misses the delta: %d %s", code, body)
	}
	if got := bases(); got != "h1 h3" {
		t.Fatalf("post-update pivoted query: %q, want h1 h3", got)
	}
	waitFor(t, "refilled memo gauge", func() bool { return gauge() > 0 })
	if counter("misses") != 4 || counter("pivoted") != 2 {
		t.Fatalf("post-update memo counters: %v misses, %v pivoted; want 4, 2", counter("misses"), counter("pivoted"))
	}
}

// TestConcurrentMemoTraffic sends /pointsto and ad-hoc /query traffic
// over a cs snapshot from many goroutines at once, with the result
// cache off so every request fills or reads a replica's memo; under
// -race it also shows the memo is confined to its replica's worker.
func TestConcurrentMemoTraffic(t *testing.T) {
	res, _ := synthSolve(t, "cs")
	s, err := New(res.Solver, Config{Replicas: 3, CacheEntries: -1, MaxInFlight: 64})
	if err != nil {
		t.Fatal(err)
	}
	base := newTestHTTP(t, s)
	rep := hydrated(t, res)
	vars, heaps := pointsToNames(rep, "vPC", 1, 2)
	type req struct {
		path, body string
		attr       string
		want       []string
	}
	var reqs []req
	names := func(q modelQuery, dom string) []string {
		var out []string
		for _, k := range q.eval(t, rep) {
			var i uint64
			fmt.Sscan(k, &i)
			out = append(out, rep.U.Domain(dom).ElemName(i))
		}
		sort.Strings(out)
		return out
	}
	for i := range vars {
		pq := modelQuery{[]string{"h"}, []lit{{pred: "vPC", args: []term{wild, tc(vars[i]), tv("h")}}}}
		reqs = append(reqs, req{path: "/pointsto?var=" + url.QueryEscape(vars[i]), attr: "heap", want: names(pq, "H")})
		hq := modelQuery{[]string{"v"}, []lit{{pred: "vPC", args: []term{wild, tv("v"), tc(heaps[i%len(heaps)])}}}}
		reqs = append(reqs, req{path: "/query", body: hq.text(rep), attr: "a0", want: names(hq, "V")})
	}
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				r := reqs[(w+i)%len(reqs)]
				var code int
				var body string
				if r.body == "" {
					code, body, _ = get(t, base+r.path)
				} else {
					code, body = post(t, base+r.path, r.body)
				}
				var out struct {
					Outputs []struct {
						Tuples []map[string]string `json:"tuples"`
					} `json:"outputs"`
				}
				if code != 200 || json.Unmarshal([]byte(body), &out) != nil || len(out.Outputs) != 1 {
					errc <- fmt.Errorf("%s: %d %s", r.path, code, body)
					return
				}
				var got []string
				for _, tup := range out.Outputs[0].Tuples {
					got = append(got, tup[r.attr])
				}
				sort.Strings(got)
				if strings.Join(got, " ") != strings.Join(r.want, " ") {
					errc <- fmt.Errorf("%s %q: got %v, want %v", r.path, r.body, got, r.want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestCannedTemplatesQuoteNamesVerbatim: the lexer has no escape
// sequences, so a name with a backslash or a tab must reach the query
// as written, not Go-escaped.
func TestCannedTemplatesQuoteNamesVerbatim(t *testing.T) {
	src := `
.domain V 4 v.map
.domain H 2 h.map
.domain F 2 f.map
.relation vP (variable : V, heap : H) output
.relation store (base : V, field : F, source : V) output
vP(0, 1).
vP(1, 1).
vP(2, 0).
store(0, 0, 2).
`
	prog, diags, err := datalog.ParseAndCheck("quote.dl", src)
	if err != nil || diags.HasErrors() {
		t.Fatal(err, diags)
	}
	sv, err := datalog.NewSolver(prog, datalog.Options{ElemNames: map[string][]string{
		"V": {`C:\src\a`, "tab\there", "plain", "other"},
		"H": {`h\0`, "h\t1"},
		"F": {"f", "g"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := sv.Solve(); err != nil {
		t.Fatal(err)
	}
	s, err := New(sv, Config{Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	base := newTestHTTP(t, s)
	for _, c := range []struct {
		path, attr string
		want       []string
	}{
		{"/pointsto?var=" + url.QueryEscape(`C:\src\a`), "heap", []string{"h\t1"}},
		{"/aliases?var=" + url.QueryEscape("tab\there"), "alias", []string{`C:\src\a`, "tab\there"}},
		{"/whodunnit?heap=" + url.QueryEscape(`h\0`), "source", []string{`C:\src\a`}},
	} {
		code, body, _ := get(t, base+c.path)
		if code != 200 {
			t.Fatalf("%s: %d %s", c.path, code, body)
		}
		got := attrValues(t, body, c.attr)
		sortStrings(got)
		if strings.Join(got, "|") != strings.Join(c.want, "|") {
			t.Fatalf("%s: %s = %q, want %q", c.path, c.attr, got, c.want)
		}
	}
}
