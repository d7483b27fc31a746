package analysis

import (
	"context"
	"fmt"
	"testing"

	"bddbddb/internal/bdd"
	"bddbddb/internal/callgraph"
	"bddbddb/internal/datalog"
	"bddbddb/internal/extract"
	"bddbddb/internal/resilience"
)

// outputFingerprint is the content fingerprint of a solver's output
// relations, in declaration order: inputs and intermediates are left
// out, so two programs that derive the same outputs from differently
// shaped inputs agree.
func outputFingerprint(s *datalog.Solver) string {
	var roots []bdd.Node
	for _, rd := range s.RelationDecls() {
		if rd.Kind == datalog.RelOutput {
			roots = append(roots, s.Relation(rd.Name).Root())
		}
	}
	return bdd.Fingerprint(s.Universe().M.RootHashes(roots))
}

// TestOutputFingerprintsPinned pins the output relations of the
// context-sensitive analyses to fingerprints recorded when rule (14)
// and its Algorithm 6/8 counterparts still seeded through the heap's
// method (hC, hcH). Seeding through the variable's method must derive
// exactly the same results.
func TestOutputFingerprintsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("solves megamek four times")
	}
	runs := map[string]func(*extract.Facts, Config) (*Result, error){
		"cs":      func(f *extract.Facts, cfg Config) (*Result, error) { return RunContextSensitive(f, nil, cfg) },
		"cs-otf":  RunContextSensitiveOnTheFly,
		"type":    func(f *extract.Facts, cfg Config) (*Result, error) { return RunTypeAnalysis(f, nil, cfg) },
		"heap-cs": func(f *extract.Facts, cfg Config) (*Result, error) { return RunHeapCloned(f, nil, cfg) },
	}
	pins := []struct{ bench, algo, want string }{
		{"jetty", "cs", "75f18e151ae6"},
		{"jetty", "cs-otf", "a2d42e1f2230"},
		{"jetty", "type", "12850327b438"},
		{"jetty", "heap-cs", "43ccd001f478"},
		{"megamek", "cs", "be91fcc6c332"},
		{"megamek", "heap-cs", "b15829498927"},
	}
	facts := map[string]*extract.Facts{}
	for _, p := range pins {
		t.Run(p.bench+"/"+p.algo, func(t *testing.T) {
			f := facts[p.bench]
			if f == nil {
				f = synthFacts(t, p.bench)
				facts[p.bench] = f
			}
			r, err := runs[p.algo](f, Config{})
			if err != nil {
				t.Fatal(err)
			}
			if got := outputFingerprint(r.Solver); got != p.want {
				t.Errorf("output fingerprint %s, pinned %s", got, p.want)
			}
		})
	}
}

// TestSeedMatchesSiteMethodSeeding builds, in the solved universe, the
// relations rules (14) and Algorithm 8's seed joined before they were
// keyed by the variable's method — hC(c, h) and hcH(c, hc, h), from the
// materializers keyed by each site's AllocMethod — and requires the
// seeds to be the same BDD node: vP0 ∧ vC = vP0 ∧ hC, and
// vP0 ∧ vcH = vP0 ∧ hcH, with and without a heap-context limit.
func TestSeedMatchesSiteMethodSeeding(t *testing.T) {
	if testing.Short() {
		t.Skip("solves megamek three times")
	}
	for _, bench := range []string{"jetty", "megamek"} {
		f := synthFacts(t, bench)
		t.Run(bench+"/cs", func(t *testing.T) {
			r, err := RunContextSensitive(f, nil, Config{})
			if err != nil {
				t.Fatal(err)
			}
			s, m := r.Solver, r.Solver.Universe().M
			vP0, vC := s.Relation("vP0"), s.Relation("vC")
			v, h, c := vP0.Attrs()[0], vP0.Attrs()[1], vC.Attrs()[0]
			if vC.Attrs()[1].Phys != v.Phys {
				t.Fatal("vC and vP0 place the variable in different physical domains")
			}
			hC := r.Numbering.MaterializeContexts(s.Universe(), "hC", c, h, f.AllocMethod)
			seeded, old := m.And(vP0.Root(), vC.Root()), m.And(vP0.Root(), hC.Root())
			if seeded != old {
				t.Fatalf("vP0 ∧ vC is node %d (%d nodes), vP0 ∧ hC node %d (%d nodes)",
					seeded, m.NodeCount(seeded), old, m.NodeCount(old))
			}
		})
		for _, limit := range []uint64{0, 2} {
			t.Run(fmt.Sprintf("%s/heap-cs/limit=%d", bench, limit), func(t *testing.T) {
				r, err := RunHeapCloned(f, nil, Config{HeapContextLimit: limit})
				if err != nil {
					t.Fatal(err)
				}
				s, m := r.Solver, r.Solver.Universe().M
				vP0, vcH := s.Relation("vP0"), s.Relation("vcH")
				v, h, c, hc := vP0.Attrs()[0], vP0.Attrs()[1], vcH.Attrs()[0], vcH.Attrs()[1]
				if vcH.Attrs()[2].Phys != v.Phys {
					t.Fatal("vcH and vP0 place the variable in different physical domains")
				}
				noHeap := noHeapContexts(f.AllocMethod, r.Numbering, c.Phys.Size, limit)
				hcH, err := r.Numbering.MaterializeHeapContexts(s.Universe(), "hcH", c, hc, h, f.AllocMethod, noHeap)
				if err != nil {
					t.Fatal(err)
				}
				seeded, old := m.And(vP0.Root(), vcH.Root()), m.And(vP0.Root(), hcH.Root())
				if seeded != old {
					t.Fatalf("vP0 ∧ vcH is node %d (%d nodes), vP0 ∧ hcH node %d (%d nodes)",
						seeded, m.NodeCount(seeded), old, m.NodeCount(old))
				}
			})
		}
	}
}

// TestLiveAddSeedsVariableContexts: a live vP0 add is seeded in every
// context of the variable's method, even when the site's method has
// fewer contexts, and an add that names a spare variable (one of
// Config.DomainSlack's values, which have no method) is seeded in every
// context, as the global variable is. The updated solver stays
// identical to a from-scratch solve of the same delta.
func TestLiveAddSeedsVariableContexts(t *testing.T) {
	f := synthFacts(t, "jetty")
	cfg := Config{DomainSlack: 4}
	r, err := RunContextSensitive(f, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cSize := r.Solver.Relation("vC").Attrs()[0].Phys.Size
	contexts := func(meth int) uint64 {
		return callgraph.CappedCount(r.Numbering.MethodContexts(meth), cSize-1)
	}
	// A variable of the method with the most contexts, and a site of a
	// reachable method with fewer.
	v, h := -1, -1
	for i, meth := range f.VarMethod {
		if meth >= 0 && (v < 0 || contexts(meth) > contexts(f.VarMethod[v])) {
			v = i
		}
	}
	for i, meth := range f.AllocMethod {
		if meth >= 0 && contexts(meth) > 0 && contexts(meth) < contexts(f.VarMethod[v]) {
			h = i
			break
		}
	}
	if v < 0 || h < 0 {
		t.Fatal("no variable whose method has more contexts than some site's")
	}
	spare := uint64(len(f.Vars))
	d := datalog.Delta{Add: map[string][][]uint64{"vP0": {{uint64(v), uint64(h)}, {spare, uint64(h)}}}}

	ls, err := Live(r)
	if err != nil {
		t.Fatal(err)
	}
	ctl := resilience.NewController(context.Background(), resilience.Budget{})
	wire := datalog.WireDelta{Add: map[string][]datalog.WireTuple{"vP0": {
		{{Num: uint64(v)}, {Num: uint64(h)}},
		{{Num: spare}, {Num: uint64(h)}},
	}}}
	if _, err := ls.Begin(ctl, wire); err != nil {
		t.Fatal(err)
	}
	ls.Commit()
	vPC := ls.Solver().Relation("vPC")
	seeded := func(variable uint64) map[uint64]bool {
		sel := vPC.SelectEq("sel", "variable", variable)
		defer sel.Free()
		both := sel.SelectEq("sel", "heap", uint64(h))
		defer both.Free()
		out := map[uint64]bool{}
		both.Iterate(func(vals []uint64) bool {
			out[vals[0]] = true
			return true
		})
		return out
	}
	got := seeded(uint64(v))
	for c := uint64(1); c <= contexts(f.VarMethod[v]); c++ {
		if !got[c] {
			t.Fatalf("vPC lacks (%d, %s, %s): the site's method has %d contexts, the variable's %d",
				c, f.Vars[v], f.Heaps[h], contexts(f.AllocMethod[h]), contexts(f.VarMethod[v]))
		}
	}
	got = seeded(spare)
	for c := uint64(0); c < cSize; c++ {
		if !got[c] {
			t.Fatalf("vPC lacks (%d, spare variable %d, %s)", c, spare, f.Heaps[h])
		}
	}

	oracleCfg := cfg
	oracleCfg.PreSolve = func(s *datalog.Solver) error {
		datalog.ApplyDeltaToRelations(s, d)
		return nil
	}
	oracle, err := RunContextSensitive(f, nil, oracleCfg)
	if err != nil {
		t.Fatal(err)
	}
	gotFP, err := ls.Solver().ContentFingerprint()
	if err != nil {
		t.Fatal(err)
	}
	wantFP, err := oracle.Solver.ContentFingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if gotFP != wantFP {
		t.Fatalf("live fingerprint %s, from-scratch %s", gotFP, wantFP)
	}
}
