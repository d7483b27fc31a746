package analysis

import (
	"bddbddb/internal/datalog"
	"bddbddb/internal/extract"
	"bddbddb/internal/rel"
)

// HandCoded solves Algorithm 2 (context-insensitive, type-filtered
// points-to over a precomputed call graph) with a hand-written pipeline
// of relational BDD operations instead of the Datalog engine. It is the
// reproduction of the paper's Section 6.4 baseline — "at the early
// stages of our research, we hand-coded every points-to analysis using
// BDD operations directly" — and exists so the engine's generated plans
// can be benchmarked against it (BenchmarkAblationEngineVsHandCoded)
// and differentially tested against RunContextInsensitive.
type HandCoded struct {
	U      *rel.Universe
	VP, HP *rel.Relation
	Stats  datalog.SolverStats
}

// RunHandCoded executes the hand-coded Algorithm 2.
func RunHandCoded(f *extract.Facts) (*HandCoded, error) {
	u := rel.NewUniverse()
	size := func(n int) uint64 {
		if n < 1 {
			return 1
		}
		return uint64(n)
	}
	u.Declare("V", size(len(f.Vars)))
	u.Declare("H", size(len(f.Heaps)))
	u.Declare("F", size(len(f.Fields)))
	u.Declare("T", size(len(f.Types)))
	u.EnsureInstances("V", 2)
	u.EnsureInstances("H", 2)
	u.EnsureInstances("T", 2)
	if err := u.Finalize(rel.FinalizeOptions{Order: []string{"F", "V", "T", "H"}}); err != nil {
		return nil, err
	}
	hc := &HandCoded{U: u}

	// Input relations on hand-picked physical instances.
	load := func(name string, tuples []extract.Tuple, attrs ...rel.Attr) *rel.Relation {
		r := u.NewRelation(name, attrs...)
		r.AddTuples(rows(tuples))
		return r
	}
	vP0 := load("vP0", f.VP0, u.A("v", "V", 0), u.A("h", "H", 0))
	g := CHACallGraph(f)
	assign := load("assign", AssignEdges(f, g, false), u.A("dest", "V", 0), u.A("v", "V", 1))
	store := load("store", f.Store, u.A("base", "V", 0), u.A("f", "F", 0), u.A("src", "V", 1))
	loadRel := load("load", f.Load, u.A("base", "V", 0), u.A("f", "F", 0), u.A("dst", "V", 1))
	vT := load("vT", f.VT, u.A("v", "V", 0), u.A("tv", "T", 0))
	hT := load("hT", f.HT, u.A("h", "H", 0), u.A("th", "T", 1))
	aT := load("aT", f.AT, u.A("tv", "T", 0), u.A("th", "T", 1))

	// Rule (5): vPfilter(v,h) :- vT(v,tv), hT(h,th), aT(tv,th).
	t1 := vT.JoinProject("t1", aT, "tv")           // (v, th)
	filter := t1.JoinProject("vPfilter", hT, "th") // (v, h)
	t1.Free()

	// Rule (6): vP := vP0 (the paper applies no filter to vP0).
	vP := vP0.Clone("vP")

	// hP(h1:H0, f, h2:H1) accumulates across iterations.
	hP := u.NewRelation("hP", u.A("h1", "H", 0), u.A("f", "F", 0), u.A("h2", "H", 1))

	applyFilter := func(r *rel.Relation) *rel.Relation {
		out := r.Join("flt", filter)
		r.Free()
		return out
	}

	// Pre-renamed copies of the inputs, as a hand-tuner would hoist.
	assign2a := assign.RenameAttr("as", "v", "v2")

	// Fixpoint over rules (7)-(9). Like the paper's hand-coded version
	// ("we did not incrementalize the outermost loops as it would have
	// been too tedious and error-prone", Section 6.4), the loop re-joins
	// the full relations each round.
	for {
		hc.Stats.Iterations++
		changed := false

		// (7) vP(v1,h) :- assign(v1,v2), vP(v2,h), vPfilter(v1,h).
		vp2 := vP.Reshape("vp2", map[string]rel.Remap{"v": {NewName: "v2", NewPhys: u.Phys("V", 1)}})
		cand0 := assign2a.JoinProject("cand", vp2, "v2")
		vp2.Free()
		cand := applyFilter(cand0.RenameAttr("cand", "dest", "v"))
		cand0.Free()
		if vP.UnionWith(cand) {
			changed = true
		}
		cand.Free()
		hc.Stats.RuleApplications++

		// (8) hP(h1,f,h2) :- store(v1,f,v2), vP(v1,h1), vP(v2,h2).
		vpBase := vP.RenameAttr("vpb", "v", "base")
		s1 := store.JoinProject("s1", vpBase, "base") // (f, src, h@H0)
		vpBase.Free()
		vpSrc := vP.Reshape("vps", map[string]rel.Remap{
			"v": {NewName: "src", NewPhys: u.Phys("V", 1)},
			"h": {NewName: "h2", NewPhys: u.Phys("H", 1)},
		})
		s2 := s1.JoinProject("s2", vpSrc, "src") // (f, h@H0, h2@H1)
		s1.Free()
		vpSrc.Free()
		s3 := s2.RenameAttr("s3", "h", "h1")
		s2.Free()
		if hP.UnionWith(s3) {
			changed = true
		}
		s3.Free()
		hc.Stats.RuleApplications++

		// (9) vP(v2,h2) :- load(v1,f,v2), vP(v1,h1), hP(h1,f,h2), vPfilter(v2,h2).
		vpBase2 := vP.Reshape("vpb2", map[string]rel.Remap{
			"v": {NewName: "base"},
			"h": {NewName: "h1", NewPhys: u.Phys("H", 1)},
		})
		l1 := loadRel.JoinProject("l1", vpBase2, "base") // (f, dst, h1@H1)
		vpBase2.Free()
		hpIn := hP.Reshape("hpi", map[string]rel.Remap{
			"h1": {NewPhys: u.Phys("H", 1)},
			"h2": {NewPhys: u.Phys("H", 0)},
		})
		l2 := l1.JoinProject("l2", hpIn, "h1", "f") // (dst@V1, h2@H0)
		l1.Free()
		hpIn.Free()
		l3 := l2.Reshape("l3", map[string]rel.Remap{
			"dst": {NewName: "v", NewPhys: u.Phys("V", 0)},
			"h2":  {NewName: "h"},
		})
		l2.Free()
		l4 := applyFilter(l3)
		if vP.UnionWith(l4) {
			changed = true
		}
		l4.Free()
		hc.Stats.RuleApplications++

		if u.M.LiveNodes()*100 > u.M.Stats().TableSize*75 {
			u.GC()
		}
		if !changed {
			break
		}
	}
	assign2a.Free()
	for _, r := range []*rel.Relation{vP0, assign, store, loadRel, vT, hT, aT, filter} {
		r.Free()
	}
	hc.VP, hc.HP = vP, hP
	ms := u.M.Stats()
	hc.Stats.PeakLiveNodes = ms.PeakLive
	return hc, nil
}
