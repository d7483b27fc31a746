package analysis

import (
	"reflect"
	"strings"
	"testing"

	"bddbddb/internal/datalog"
	"bddbddb/internal/extract"
	"bddbddb/internal/program"
	"bddbddb/internal/synth"
)

func facts(t *testing.T, src string) *extract.Facts {
	t.Helper()
	p := program.MustParse(src)
	f, err := extract.Extract(p, extract.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// polySrc is the classic polyvariance example: a context-insensitive
// analysis conflates the two calls to id; a context-sensitive one keeps
// them apart.
const polySrc = `
entry Main.main
class A {
}
class B {
}
class Main {
    static method main(args) {
        a = new A
        b = new B
        x = Main::id(a)
        y = Main::id(b)
    }
    static method id(p) returns r {
        r = p
    }
}
`

// dispatchSrc exercises on-the-fly call graph discovery: CHA sees two
// targets for x.m(), the points-to-driven graph sees one.
const dispatchSrc = `
entry Main.main
class A {
    method m() returns r: A {
        r = new A
    }
}
class B extends A {
    method m() returns r: A {
        r = new B
    }
}
class Main {
    static method main(args) {
        var x: A
        x = new A
        y = x.m()
    }
}
`

// threadSrc exercises the escape analysis: one captured object and one
// that escapes (stored to a global by the thread and read back by
// main — the paper's escape notion requires the cross-thread access,
// not mere reachability), plus a main-local object.
const threadSrc = `
entry Main.main
class Item {
}
class Worker extends java.lang.Thread {
    method run() {
        i = new Item
        s = new Item
        global.leak = s
        sync i
        sync s
    }
}
class Main {
    static method main(args) {
        t = new Worker
        t.start()
        m = new Item
        r = global.leak
    }
}
`

func refVP(f *extract.Facts, typeFilter bool) map[[2]uint64]bool {
	return ReferenceOnTheFly(f, typeFilter).VPSet()
}

func vpOf(t *testing.T, r *Result) map[[2]uint64]bool {
	t.Helper()
	return r.PointsToPairs()
}

func samePairs(t *testing.T, got, want map[[2]uint64]bool, label string) {
	t.Helper()
	for k := range want {
		if !got[k] {
			t.Fatalf("%s: missing pair %v", label, k)
		}
	}
	for k := range got {
		if !want[k] {
			t.Fatalf("%s: extra pair %v", label, k)
		}
	}
}

func subsetPairs(t *testing.T, small, big map[[2]uint64]bool, label string) {
	t.Helper()
	for k := range small {
		if !big[k] {
			t.Fatalf("%s: pair %v not in superset", label, k)
		}
	}
}

func TestAlgorithm3MatchesReference(t *testing.T) {
	for _, src := range []string{polySrc, dispatchSrc, threadSrc} {
		f := facts(t, src)
		r, err := RunOnTheFly(f, Config{})
		if err != nil {
			t.Fatal(err)
		}
		samePairs(t, vpOf(t, r), refVP(f, true), "Algorithm 3 vs reference")
	}
}

func TestAlgorithm2MatchesReferenceWithCHAGraph(t *testing.T) {
	for _, src := range []string{polySrc, dispatchSrc, threadSrc} {
		f := facts(t, src)
		r, err := RunContextInsensitive(f, true, Config{})
		if err != nil {
			t.Fatal(err)
		}
		want := ReferenceWithCallGraph(f, AssignEdges(f, r.Graph, false), true).VPSet()
		samePairs(t, vpOf(t, r), want, "Algorithm 2 vs reference")
	}
}

func TestAlgorithm1NoFilterIsWeaker(t *testing.T) {
	f := facts(t, dispatchSrc)
	r1, err := RunContextInsensitive(f, false, Config{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunContextInsensitive(f, true, Config{})
	if err != nil {
		t.Fatal(err)
	}
	subsetPairs(t, vpOf(t, r2), vpOf(t, r1), "filtered ⊆ unfiltered")
}

func TestOnTheFlyPrunesCHA(t *testing.T) {
	f := facts(t, dispatchSrc)
	r, err := RunOnTheFly(f, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ie := r.Solver.Relation("IE")
	bm := f.MethodIndex("B.m")
	ie.Iterate(func(vals []uint64) bool {
		if vals[1] == uint64(bm) {
			t.Fatalf("on-the-fly graph should not call B.m (receiver is only ever A)")
		}
		return true
	})
	// CHA, in contrast, includes B.m.
	chaG := CHACallGraph(f)
	found := false
	for _, e := range chaG.Edges {
		if e.Callee == bm {
			found = true
		}
	}
	if !found {
		t.Fatal("CHA should include B.m")
	}
}

func TestContextSensitiveSeparatesCallSites(t *testing.T) {
	f := facts(t, polySrc)
	ci, err := RunOnTheFly(f, Config{})
	if err != nil {
		t.Fatal(err)
	}
	cs, err := RunContextSensitive(f, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	x := uint64(f.LocalRep("Main.main", "x"))
	y := uint64(f.LocalRep("Main.main", "y"))
	var hA, hB uint64
	for h, name := range f.Heaps {
		switch {
		case h == 0:
		case name[len(name)-1] == 'A':
			hA = uint64(h)
		case name[len(name)-1] == 'B':
			hB = uint64(h)
		}
	}
	ciPairs := vpOf(t, ci)
	csPairs := vpOf(t, cs)
	// Context-insensitive: both call sites conflated.
	for _, k := range [][2]uint64{{x, hA}, {x, hB}, {y, hA}, {y, hB}} {
		if !ciPairs[k] {
			t.Fatalf("CI should conflate id() results; missing %v", k)
		}
	}
	// Context-sensitive: x sees only A, y only B.
	if !csPairs[[2]uint64{x, hA}] || !csPairs[[2]uint64{y, hB}] {
		t.Fatal("CS lost real points-to pairs")
	}
	if csPairs[[2]uint64{x, hB}] || csPairs[[2]uint64{y, hA}] {
		t.Fatal("CS should separate the two id() calls")
	}
	// CS is never less precise than CI.
	subsetPairs(t, csPairs, ciPairs, "CS ⊆ CI")
}

func TestContextSensitiveSoundOnAllPrograms(t *testing.T) {
	for _, src := range []string{polySrc, dispatchSrc, threadSrc} {
		f := facts(t, src)
		ci, err := RunOnTheFly(f, Config{})
		if err != nil {
			t.Fatal(err)
		}
		cs, err := RunContextSensitive(f, nil, Config{})
		if err != nil {
			t.Fatal(err)
		}
		// Soundness floor: every pair derivable context-sensitively with
		// the same call graph must appear in the CI result, and the CS
		// result must cover the allocation seeds of reachable code.
		subsetPairs(t, vpOf(t, cs), vpOf(t, ci), "CS ⊆ CI on "+src[:20])
		csPairs := vpOf(t, cs)
		for _, t0 := range f.VP0 {
			if !csPairs[[2]uint64{t0[0], t0[1]}] {
				// Only reachable methods' allocations must appear.
				mi := f.AllocMethod[t0[1]]
				if mi >= 0 && cs.Numbering.MethodContexts(mi).Sign() > 0 {
					// Every method has >= 1 context in our numbering, so
					// check reachability through the discovered graph.
					reach := cs.Graph.ReachableMethods()
					if reach[mi] {
						t.Fatalf("CS lost allocation seed %v", t0)
					}
				}
			}
		}
	}
}

func TestTypeAnalysisIsCoarserThanPointerAnalysis(t *testing.T) {
	f := facts(t, polySrc)
	g, err := DiscoverCallGraph(f, Config{})
	if err != nil {
		t.Fatal(err)
	}
	p5, err := RunContextSensitive(f, g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	p6, err := RunTypeAnalysis(f, g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Every (c,v)->type derivable from the pointer analysis must appear
	// in the type analysis.
	heapTypes := make(map[uint64]uint64)
	for _, ht := range f.HT {
		heapTypes[ht[0]] = ht[1]
	}
	vtc := make(map[[3]uint64]bool)
	p6.Solver.Relation("vTC").Iterate(func(vals []uint64) bool {
		vtc[[3]uint64{vals[0], vals[1], vals[2]}] = true
		return true
	})
	p5.Solver.Relation("vPC").Iterate(func(vals []uint64) bool {
		ty := heapTypes[vals[2]]
		if !vtc[[3]uint64{vals[0], vals[1], ty}] {
			t.Fatalf("type analysis missing (c=%d v=%d t=%d)", vals[0], vals[1], ty)
		}
		return true
	})
}

func TestThreadEscape(t *testing.T) {
	f := facts(t, threadSrc)
	r, err := RunThreadEscape(f, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	m := EscapeResults(r)
	// Escaped: the global object and the leaked Item and the Worker
	// thread object (shared between spawner and thread).
	if m.EscapedSites != 3 {
		t.Fatalf("escaped sites = %d, want 3", m.EscapedSites)
	}
	// Captured: the thread-local Item and main's Item.
	if m.CapturedSites != 2 {
		t.Fatalf("captured sites = %d, want 2", m.CapturedSites)
	}
	if m.NeededSyncs != 1 || m.UnneededSyncs != 1 {
		t.Fatalf("syncs = %+v", m)
	}
}

func TestSingleThreadedOnlyGlobalEscapes(t *testing.T) {
	f := facts(t, polySrc)
	r, err := RunThreadEscape(f, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	m := EscapeResults(r)
	// Figure 5: "The single-threaded benchmarks have only one escaped
	// object: the global object".
	if m.EscapedSites != 1 {
		t.Fatalf("escaped sites = %d, want 1 (the global)", m.EscapedSites)
	}
}

func TestMemoryLeakQuery(t *testing.T) {
	src := `
entry Main.main
class Node {
    field next
}
class Main {
    static method main(args) {
        cache = new Node
        leaked = new Node
        cache.next = leaked
        global.root = cache
    }
}
`
	f := facts(t, src)
	var leakName string
	for h, name := range f.Heaps {
		if h > 0 && f.AllocMethod[h] >= 0 && name[len(name)-4:] == "Node" {
			// Pick the second Node allocation (the leaked one).
			leakName = name
		}
	}
	r, err := RunContextSensitive(f, nil, Config{ExtraSrc: MemoryLeakQuerySrc(leakName)})
	if err != nil {
		t.Fatal(err)
	}
	who := r.Solver.Relation("whoPointsTo").Tuples()
	if len(who) != 1 {
		t.Fatalf("whoPointsTo = %v", who)
	}
	if f.Heaps[who[0][0]][len(f.Heaps[who[0][0]])-4:] != "Node" || f.Fields[who[0][1]] != "next" {
		t.Fatalf("whoPointsTo wrong: %v", who)
	}
	dunnit := r.Solver.Relation("whoDunnit").Tuples()
	if len(dunnit) != 1 {
		t.Fatalf("whoDunnit = %v", dunnit)
	}
}

func TestSecurityQuery(t *testing.T) {
	src := `
entry Main.main
class java.lang.String {
    method chars() returns r {
        r = new java.lang.String
    }
}
class Key {
}
class Crypto {
    method init(k) {
    }
}
class Main {
    static method main(args) {
        s = new java.lang.String
        c = s.chars()
        x = new Crypto
        x.init(c)
        k = new Key
        y = new Crypto
        y.init(k)
    }
}
`
	f := facts(t, src)
	r, err := RunContextSensitive(f, nil, Config{
		ExtraSrc: SecurityQuerySrc("java.lang.String", "Crypto.init"),
	})
	if err != nil {
		t.Fatal(err)
	}
	vulns := r.Solver.Relation("vuln").Tuples()
	if len(vulns) != 1 {
		t.Fatalf("vuln = %v", vulns)
	}
	site := f.Invokes[vulns[0][1]]
	if site != "Main.main@3" {
		t.Fatalf("vulnerable site = %s", site)
	}
}

func TestTypeRefinementVariants(t *testing.T) {
	f := facts(t, polySrc)
	// CI with filter.
	ci, err := RunContextInsensitive(f, true, Config{ExtraSrc: TypeRefinementQuerySrc(RefineCIPointer)})
	if err != nil {
		t.Fatal(err)
	}
	mci := RefinementResults(ci)
	// Projected CS.
	csP, err := RunContextSensitive(f, nil, Config{ExtraSrc: TypeRefinementQuerySrc(RefineProjectedCSPointer)})
	if err != nil {
		t.Fatal(err)
	}
	mcsP := RefinementResults(csP)
	// Full CS.
	cs, err := RunContextSensitive(f, nil, Config{ExtraSrc: TypeRefinementQuerySrc(RefineCSPointer)})
	if err != nil {
		t.Fatal(err)
	}
	mcs := RefinementResults(cs)
	// id()'s parameter/return alias class sees A and B context-
	// insensitively (multi-typed) but one type per context.
	if mci.MultiType == 0 {
		t.Fatalf("CI should report multi-typed vars: %+v", mci)
	}
	if mcs.MultiType != 0 {
		t.Fatalf("full CS should have no multi-typed vars here: %+v", mcs)
	}
	// Monotone: full CS multi% <= projected CS multi% <= CI multi%.
	if mcs.MultiPct > mcsP.MultiPct+1e-9 || mcsP.MultiPct > mci.MultiPct+1e-9 {
		t.Fatalf("multi%% not monotone: CI=%.1f projCS=%.1f CS=%.1f",
			mci.MultiPct, mcsP.MultiPct, mcs.MultiPct)
	}
}

func TestModRefQuery(t *testing.T) {
	src := `
entry Main.main
class Obj {
    field data
}
class Main {
    static method main(args) {
        o = new Obj
        Main::write(o)
    }
    static method write(p) {
        v = new Obj
        p.data = v
    }
}
`
	f := facts(t, src)
	r, err := RunContextSensitive(f, nil, Config{ExtraSrc: ModRefQuerySrc})
	if err != nil {
		t.Fatal(err)
	}
	mods := r.Solver.Relation("mod").Tuples()
	if len(mods) == 0 {
		t.Fatal("mod should not be empty")
	}
	// main transitively modifies Obj.data through write().
	main := uint64(f.MethodIndex("Main.main"))
	data := uint64(f.FieldIndex("data"))
	found := false
	for _, tp := range mods {
		if tp[1] == main && tp[3] == data {
			found = true
		}
	}
	if !found {
		t.Fatalf("mod misses main's transitive write: %v", mods)
	}
}

func TestAblationNoIncrementalizationSameResult(t *testing.T) {
	f := facts(t, dispatchSrc)
	a, err := RunOnTheFly(f, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// The ablation is a solver option: build Algorithm 3's solver with
	// it directly, inputs loaded as RunOnTheFly loads them.
	opts := baseOptions(f, Config{}, ciOrder)
	opts.NoIncrementalization = true
	s, err := datalog.NewSolver(datalog.MustParse(Algorithm3Src), opts)
	if err != nil {
		t.Fatal(err)
	}
	fillCommon(s, f)
	fill(s, "assign0", f.Assign)
	if err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	b := &Result{Solver: s, Facts: f}
	samePairs(t, vpOf(t, b), vpOf(t, a), "no-incrementalization ablation")
}

func TestCustomOrderSameResult(t *testing.T) {
	f := facts(t, polySrc)
	a, err := RunContextSensitive(f, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunContextSensitive(f, nil, Config{
		Order: []string{"H", "V", "F", "T", "M", "N", "Z", "I", "C"},
	})
	if err != nil {
		t.Fatal(err)
	}
	samePairs(t, vpOf(t, b), vpOf(t, a), "variable order independence")
}

func TestContextLimitMergingStaysSound(t *testing.T) {
	f := facts(t, polySrc)
	full, err := RunContextSensitive(f, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	merged, err := RunContextSensitive(f, nil, Config{ContextLimit: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Merging contexts loses precision but must not lose pairs.
	subsetPairs(t, vpOf(t, full), vpOf(t, merged), "full ⊆ merged")
}

// TestRunTable checks that every name Run accepts dispatches to its
// entry point: same projected points-to pairs (for type, same vTC) as a
// direct call.
func TestRunTable(t *testing.T) {
	f, err := extract.Extract(synth.Generate(synth.Quick), extract.Options{})
	if err != nil {
		t.Fatal(err)
	}
	direct := map[string]func() (*Result, error){
		"ci":      func() (*Result, error) { return RunContextInsensitive(f, false, Config{}) },
		"cif":     func() (*Result, error) { return RunContextInsensitive(f, true, Config{}) },
		"otf":     func() (*Result, error) { return RunOnTheFly(f, Config{}) },
		"cs":      func() (*Result, error) { return RunContextSensitive(f, nil, Config{}) },
		"heap-cs": func() (*Result, error) { return RunHeapCloned(f, nil, Config{}) },
		"type":    func() (*Result, error) { return RunTypeAnalysis(f, nil, Config{}) },
		"threads": func() (*Result, error) { return RunThreadEscape(f, nil, Config{}) },
	}
	if len(direct) != len(Algorithms) {
		t.Fatalf("Algorithms lists %d names, test covers %d", len(Algorithms), len(direct))
	}
	for _, name := range Algorithms {
		t.Run(name, func(t *testing.T) {
			want, err := direct[name]()
			if err != nil {
				t.Fatal(err)
			}
			got, err := Run(name, f, Config{})
			if err != nil {
				t.Fatal(err)
			}
			if name == "type" {
				if g, w := got.RelationSize("vTC"), want.RelationSize("vTC"); g.Cmp(w) != 0 || w.Sign() == 0 {
					t.Fatalf("vTC: Run %s tuples, direct %s", g, w)
				}
				return
			}
			g, w := got.PointsToPairs(), want.PointsToPairs()
			if len(w) == 0 || !reflect.DeepEqual(g, w) {
				t.Fatalf("points-to pairs: Run %d, direct %d", len(g), len(w))
			}
		})
	}
	if _, err := Run("bogus", f, Config{}); err == nil || !strings.Contains(err.Error(), "heap-cs") {
		t.Fatalf("unknown name: got %v, want an error listing the names", err)
	}
}
