// Package precision is the mode-comparison engine: it runs one program
// under several sensitivity modes ({ci, cs, heap-cs}) and reports the
// measured precision deltas — projected points-to set sizes, alias-pair
// counts, and the downcast/nil proxies — next to each mode's cost. New
// sensitivity modes are justified by these numbers, not asserted: the
// claim "heap cloning is more precise" appears here as a strictly
// smaller average points-to set on a real workload, or not at all.
//
// Every count is derived from projected (variable, heap) pairs, so the
// modes compare on the exact query surface the serving layer exposes.
// Reports are deterministic for a fixed workload: all slices are
// sorted, no map iteration order leaks into the output.
package precision

import (
	"fmt"
	"io"
	"sort"

	"bddbddb/internal/analysis"
	"bddbddb/internal/callgraph"
	"bddbddb/internal/extract"
)

// Mode names, in canonical comparison order.
const (
	ModeCI     = "ci"      // Algorithm 3 (context-insensitive, on-the-fly call graph)
	ModeCS     = "cs"      // Algorithm 5 (call-path cloning)
	ModeHeapCS = "heap-cs" // Algorithm 8 (call-path + heap cloning)
)

// Options tunes a comparison.
type Options struct {
	// Modes lists the modes to run, in order. Nil means {ci, cs, heap-cs}.
	Modes []string
	// HeapLabel overrides the heap-object display label (defaults to the
	// extracted name). cmd/pointsto passes its file:line-based labeler
	// so /precision output and -report output agree.
	HeapLabel func(h int) string
	// VarLabel overrides the variable display label likewise.
	VarLabel func(v int) string
	// NilReport, when set, counts a frontend's nil-dereference reports
	// for one mode's projected pairs (cmd/pointsto wires its nil
	// report in). Modes record -1 when unset.
	NilReport func(pairs map[[2]uint64]bool) int
	// TopShrunk caps the per-variable delta list (0 means 10).
	TopShrunk int
}

// ModeMetrics is one mode's measured precision and cost.
type ModeMetrics struct {
	Mode string `json:"mode"`

	// Precision counters over projected (variable, heap) pairs.
	Pairs         int     `json:"pairs"`           // projected points-to pairs
	PointedVars   int     `json:"pointed_vars"`    // variables with a nonempty set
	EmptyVars     int     `json:"empty_vars"`      // extracted variables with an empty set (nil proxy)
	AvgPointsTo   float64 `json:"avg_points_to"`   // pairs / pointed vars
	MaxPointsTo   int     `json:"max_points_to"`   // largest single set
	AliasPairs    int     `json:"alias_pairs"`     // distinct variable pairs sharing a heap object
	MultiTypeVars int     `json:"multi_type_vars"` // variables pointing to >1 type (downcast proxy)
	NilReports    int     `json:"nil_reports"`     // frontend nil reports (-1 when no frontend hook)

	// Cost, from the solver stats. Degraded marks a budget fallback —
	// the numbers then describe the degraded (ci) answer.
	SolveMS       float64 `json:"solve_ms"`
	PeakLiveNodes int     `json:"peak_live_nodes"`
	Degraded      bool    `json:"degraded"`
}

// Delta is the precision movement between two modes.
type Delta struct {
	From              string  `json:"from"`
	To                string  `json:"to"`
	PairsRemoved      int     `json:"pairs_removed"`
	AvgFrom           float64 `json:"avg_from"`
	AvgTo             float64 `json:"avg_to"`
	AliasPairsRemoved int     `json:"alias_pairs_removed"`
	MultiTypeRemoved  int     `json:"multi_type_removed"`
}

// VarDelta is one variable whose points-to set shrank under heap
// cloning, with the heap objects the refinement removed.
type VarDelta struct {
	Var     string   `json:"var"`
	CS      int      `json:"cs"`
	HeapCS  int      `json:"heap_cs"`
	Removed []string `json:"removed"` // dropped heap labels (capped at 5)
}

// Report is a full mode comparison over one workload.
type Report struct {
	Workload string `json:"workload"`

	// Heap-cloning shape (from the heap-cs run; zero when it didn't run).
	HeapContexts  uint64 `json:"heap_contexts"`  // largest heap-context value in cvP
	ClonedSites   int    `json:"cloned_sites"`   // |heapCloned|
	UnclonedSites int    `json:"uncloned_sites"` // sites kept context-insensitive

	Modes     []ModeMetrics `json:"modes"`
	Deltas    []Delta       `json:"deltas"`
	TopShrunk []VarDelta    `json:"top_shrunk,omitempty"` // cs → heap-cs, largest reductions first
}

// WriteText renders the report's deterministic view — every counter,
// no costs — one workload block per call. Two runs of the same
// workload must render identically; CI diffs this output to catch
// nondeterminism in the comparison pipeline.
func (r *Report) WriteText(w io.Writer) {
	fmt.Fprintf(w, "workload %s: heap contexts %d, cloned sites %d, uncloned %d\n",
		r.Workload, r.HeapContexts, r.ClonedSites, r.UnclonedSites)
	for _, m := range r.Modes {
		fmt.Fprintf(w, "  %-8s pairs %d, vars %d, avg %.3f, max %d, alias pairs %d, multi-type %d, empty %d",
			m.Mode, m.Pairs, m.PointedVars, m.AvgPointsTo, m.MaxPointsTo, m.AliasPairs, m.MultiTypeVars, m.EmptyVars)
		if m.NilReports >= 0 {
			fmt.Fprintf(w, ", nil reports %d", m.NilReports)
		}
		if m.Degraded {
			fmt.Fprint(w, " (degraded)")
		}
		fmt.Fprintln(w)
	}
	for _, d := range r.Deltas {
		fmt.Fprintf(w, "  %s -> %s: -%d pairs (avg %.3f -> %.3f), -%d alias pairs, -%d multi-type vars\n",
			d.From, d.To, d.PairsRemoved, d.AvgFrom, d.AvgTo, d.AliasPairsRemoved, d.MultiTypeRemoved)
	}
	for _, v := range r.TopShrunk {
		fmt.Fprintf(w, "  shrunk %s: %d -> %d, removed %v\n", v.Var, v.CS, v.HeapCS, v.Removed)
	}
}

// Metrics flattens the report into the dotted-key map of the
// BENCH_*.json trajectory format: "precision.<workload>.<mode>.<metric>".
func (r *Report) Metrics() map[string]float64 {
	m := make(map[string]float64)
	p := "precision." + r.Workload + "."
	m[p+"heap_contexts"] = float64(r.HeapContexts)
	m[p+"cloned_sites"] = float64(r.ClonedSites)
	for _, mm := range r.Modes {
		q := p + mm.Mode + "."
		m[q+"pairs"] = float64(mm.Pairs)
		m[q+"avg_points_to"] = mm.AvgPointsTo
		m[q+"alias_pairs"] = float64(mm.AliasPairs)
		m[q+"multi_type_vars"] = float64(mm.MultiTypeVars)
		m[q+"solve_ms"] = mm.SolveMS
		m[q+"peak_live_nodes"] = float64(mm.PeakLiveNodes)
	}
	return m
}

// Compare runs the program under every requested mode and measures the
// precision deltas. cfg is cloned per run; the call graph discovered by
// the ci mode is reused by the cloning modes.
func Compare(workload string, f *extract.Facts, cfg analysis.Config, opts Options) (*Report, error) {
	modes := opts.Modes
	if modes == nil {
		modes = []string{ModeCI, ModeCS, ModeHeapCS}
	}
	rep := &Report{Workload: workload}
	byMode := make(map[string]map[[2]uint64]bool)
	heapType := heapTypes(f)
	var graph = (*analysis.Result)(nil)
	for _, mode := range modes {
		var r *analysis.Result
		var err error
		switch mode {
		case ModeCI:
			r, err = analysis.RunOnTheFly(f, cfg)
			if err == nil && graph == nil {
				r.Graph = analysis.GraphFromIE(f, r.Solver.Relation("IE"))
				graph = r
			}
		case ModeCS:
			r, err = analysis.RunContextSensitive(f, sharedGraph(graph), cfg)
		case ModeHeapCS:
			r, err = analysis.RunHeapCloned(f, sharedGraph(graph), cfg)
		default:
			return nil, fmt.Errorf("precision: unknown mode %q", mode)
		}
		if err != nil {
			return nil, fmt.Errorf("precision: mode %s: %w", mode, err)
		}
		pairs := r.PointsToPairs()
		byMode[mode] = pairs
		rep.Modes = append(rep.Modes, measure(mode, r, pairs, f, heapType, opts))
		if mode == ModeHeapCS && !r.Degraded {
			rep.HeapContexts, rep.ClonedSites, rep.UnclonedSites = heapShape(r, f)
		}
	}
	for i := 1; i < len(rep.Modes); i++ {
		from, to := rep.Modes[i-1], rep.Modes[i]
		rep.Deltas = append(rep.Deltas, Delta{
			From: from.Mode, To: to.Mode,
			PairsRemoved:      from.Pairs - to.Pairs,
			AvgFrom:           from.AvgPointsTo,
			AvgTo:             to.AvgPointsTo,
			AliasPairsRemoved: from.AliasPairs - to.AliasPairs,
			MultiTypeRemoved:  from.MultiTypeVars - to.MultiTypeVars,
		})
	}
	if cs, hcs := byMode[ModeCS], byMode[ModeHeapCS]; cs != nil && hcs != nil {
		rep.TopShrunk = topShrunk(cs, hcs, f, opts)
	}
	return rep, nil
}

// sharedGraph extracts the reusable call graph from the ci result.
func sharedGraph(ci *analysis.Result) *callgraph.Graph {
	if ci == nil {
		return nil
	}
	return ci.Graph
}

func heapTypes(f *extract.Facts) map[uint64]uint64 {
	ht := make(map[uint64]uint64, len(f.HT))
	for _, t := range f.HT {
		ht[t[0]] = t[1]
	}
	return ht
}

// measure computes one mode's metrics from its projected pairs.
func measure(mode string, r *analysis.Result, pairs map[[2]uint64]bool, f *extract.Facts, heapType map[uint64]uint64, opts Options) ModeMetrics {
	perVar := make(map[uint64]int)
	varTypes := make(map[uint64]map[uint64]bool)
	byHeap := make(map[uint64][]uint64)
	for p := range pairs {
		v, h := p[0], p[1]
		perVar[v]++
		if t, ok := heapType[h]; ok {
			if varTypes[v] == nil {
				varTypes[v] = make(map[uint64]bool)
			}
			varTypes[v][t] = true
		}
		byHeap[h] = append(byHeap[h], v)
	}
	m := ModeMetrics{Mode: mode, Pairs: len(pairs), PointedVars: len(perVar), NilReports: -1, Degraded: r.Degraded}
	for _, n := range perVar {
		if n > m.MaxPointsTo {
			m.MaxPointsTo = n
		}
	}
	if m.PointedVars > 0 {
		m.AvgPointsTo = float64(m.Pairs) / float64(m.PointedVars)
	}
	m.EmptyVars = len(f.Vars) - m.PointedVars
	for _, ts := range varTypes {
		if len(ts) > 1 {
			m.MultiTypeVars++
		}
	}
	m.AliasPairs = aliasPairs(byHeap)
	if opts.NilReport != nil {
		m.NilReports = opts.NilReport(pairs)
	}
	st := r.Stats()
	m.SolveMS = float64(st.SolveTime.Microseconds()) / 1000
	m.PeakLiveNodes = st.PeakLiveNodes
	return m
}

// aliasPairs counts distinct unordered variable pairs that share at
// least one heap target. Exact — the comparison workloads are small;
// the count is order-independent by construction (a set keyed on the
// ordered pair), so reports stay deterministic.
func aliasPairs(byHeap map[uint64][]uint64) int {
	seen := make(map[[2]uint64]bool)
	for _, vars := range byHeap {
		for i := 0; i < len(vars); i++ {
			for j := i + 1; j < len(vars); j++ {
				a, b := vars[i], vars[j]
				if a > b {
					a, b = b, a
				}
				seen[[2]uint64{a, b}] = true
			}
		}
	}
	return len(seen)
}

// heapShape reads the heap-cloning shape off an Algorithm 8 result.
// cvP is context-carrying and can hold astronomically many tuples, so
// the max heap context comes from its projection onto the HC attribute
// (at most |HC| tuples) — never from enumerating cvP itself.
func heapShape(r *analysis.Result, f *extract.Facts) (maxHC uint64, cloned, uncloned int) {
	hcs := r.Solver.Relation("cvP").ProjectOut("precision.hcs", "context", "variable", "heap")
	hcs.Iterate(func(vals []uint64) bool {
		if vals[0] > maxHC {
			maxHC = vals[0]
		}
		return true
	})
	hcs.Free()
	r.Solver.Relation("heapCloned").Iterate(func([]uint64) bool {
		cloned++
		return true
	})
	uncloned = len(f.Heaps) - cloned
	return
}

// topShrunk lists the variables whose projected sets shrank the most
// from cs to heap-cs, with the removed heap objects labeled.
func topShrunk(cs, hcs map[[2]uint64]bool, f *extract.Facts, opts Options) []VarDelta {
	top := opts.TopShrunk
	if top == 0 {
		top = 10
	}
	heapLabel := opts.HeapLabel
	if heapLabel == nil {
		heapLabel = func(h int) string { return f.Heaps[h] }
	}
	varLabel := opts.VarLabel
	if varLabel == nil {
		varLabel = func(v int) string { return f.Vars[v] }
	}
	csSize := make(map[uint64]int)
	hcsSize := make(map[uint64]int)
	for p := range cs {
		csSize[p[0]]++
	}
	for p := range hcs {
		hcsSize[p[0]]++
	}
	type cand struct {
		v        uint64
		from, to int
	}
	var cands []cand
	for v, n := range csSize {
		if m := hcsSize[v]; m < n {
			cands = append(cands, cand{v, n, m})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		di, dj := cands[i].from-cands[i].to, cands[j].from-cands[j].to
		if di != dj {
			return di > dj
		}
		return cands[i].v < cands[j].v
	})
	if len(cands) > top {
		cands = cands[:top]
	}
	out := make([]VarDelta, 0, len(cands))
	for _, c := range cands {
		vd := VarDelta{Var: varLabel(int(c.v)), CS: c.from, HeapCS: c.to}
		var removed []uint64
		for p := range cs {
			if p[0] == c.v && !hcs[p] {
				removed = append(removed, p[1])
			}
		}
		sort.Slice(removed, func(i, j int) bool { return removed[i] < removed[j] })
		if len(removed) > 5 {
			removed = removed[:5]
		}
		for _, h := range removed {
			vd.Removed = append(vd.Removed, heapLabel(int(h)))
		}
		out = append(out, vd)
	}
	return out
}
