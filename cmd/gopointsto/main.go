// Command gopointsto points the paper's analyses at real Go packages.
//
// Usage:
//
//	gopointsto [flags] ./path/to/pkg [./other/pkg/...]
//
// Patterns are directories inside one module, optionally with a
// trailing /... for recursion (e.g. `gopointsto ./internal/order` or
// `gopointsto ./...` from the module root). The packages are parsed
// and type-checked with the standard library only, lowered into the
// IR by internal/frontend/gofront, and solved exactly like a .jp
// program — the whole downstream pipeline is shared with cmd/pointsto.
//
// Algorithms (-algo): ci, cif, otf, cs (default), heap-cs, type,
// threads — the same set as pointsto plus Algorithm 8's heap-cloned
// mode. -entries picks the analysis roots: auto (main.main when
// present, else every exported function), main, exported, or all.
//
// Reports (-report, comma-separated):
//
//	nil        dereferences of variables with empty points-to sets
//	escape     goroutine escape analysis: allocation sites reachable
//	           from more than one goroutine, with source positions
//	           (runs Algorithm 7 in addition to -algo if needed)
//	precision  {ci, cs, heap-cs} mode comparison: how much each
//	           refinement shrinks the points-to and alias relations
//	           (solves all three modes regardless of -algo)
//
// Allocation sites in reports are labeled `file:line new T` when the
// lowering metadata can resolve them, falling back to the raw
// Class.method@site:Type heap name for synthetic objects.
//
// Both reports are heuristics bounded by the frontend's documented
// approximations — see the Caveats table in internal/frontend/gofront
// and DESIGN.md §11.
//
// -bench-out FILE writes the session metrics (lowering tallies, solve
// time, BDD statistics) as a metrics JSON. Observability (-trace,
// -metrics, -v, -cpuprofile) and resilience (-timeout, -max-nodes,
// -checkpoint-dir, -resume) flags are shared with the other commands.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"

	"bddbddb/internal/analysis"
	"bddbddb/internal/callgraph"
	"bddbddb/internal/datalog"
	"bddbddb/internal/extract"
	"bddbddb/internal/frontend/gofront"
	"bddbddb/internal/obs"
	"bddbddb/internal/precision"
	"bddbddb/internal/resilience"
)

// maxReportLines caps each report's printed rows (the totals always print).
const maxReportLines = 20

func main() {
	algo := flag.String("algo", "cs", "analysis: ci|cif|otf|cs|heap-cs|type|threads")
	entries := flag.String("entries", "auto", "analysis roots: auto|main|exported|all")
	report := flag.String("report", "", "comma-separated reports: nil,escape,precision")
	varName := flag.String("var", "", "print the points-to set of this variable (Class.method/v)")
	noOpt := flag.Bool("noopt", false, "disable the Datalog plan optimizer (pinned textual-order execution)")
	benchOut := flag.String("bench-out", "", "write lowering+solve metrics JSON to this file")
	var oflags obs.Flags
	oflags.Register(flag.CommandLine)
	var rflags resilience.Flags
	rflags.Register(flag.CommandLine)
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: gopointsto [flags] ./pkg [./pkg/...]")
		flag.Usage()
		os.Exit(2)
	}
	sess, err := oflags.Start("gopointsto")
	if err != nil {
		fmt.Fprintln(os.Stderr, "gopointsto:", err)
		os.Exit(1)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	runErr := run(ctx, sess, rflags, flag.Args(), *algo, *entries, *report, *varName, *noOpt, *benchOut)
	stop()
	if err := sess.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "gopointsto:", err)
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "gopointsto:", runErr)
		os.Exit(resilience.ExitCode(runErr))
	}
}

func run(ctx context.Context, sess *obs.Session, rflags resilience.Flags,
	patterns []string, algo, entries, report, varName string, noOpt bool, benchOut string) error {
	tr := sess.Tracer
	reports := make(map[string]bool)
	for _, r := range strings.Split(report, ",") {
		r = strings.TrimSpace(r)
		if r == "" {
			continue
		}
		if r != "nil" && r != "escape" && r != "precision" {
			return fmt.Errorf("unknown report %q (want nil, escape, or precision)", r)
		}
		reports[r] = true
	}

	obs.Begin(tr, "gopointsto.lower")
	res, err := gofront.Lower(patterns, gofront.Options{Entries: gofront.EntryMode(entries)})
	obs.End(tr)
	if err != nil {
		return err
	}
	meta := res.Meta
	st := res.Prog.Stats()
	fmt.Printf("lowered %d packages (%d requested): %d classes, %d methods, %d stmts, %d allocation sites\n",
		len(meta.Packages), len(meta.Requested), st.Classes, st.Methods, st.Stmts, st.Allocs)
	if meta.TypeErrors > 0 {
		fmt.Printf("tolerated %d type errors from placeholder imports (external code is opaque)\n", meta.TypeErrors)
	}
	if meta.Goroutines > 0 {
		fmt.Printf("goroutines: %d spawn sites lowered as Thread subclasses\n", meta.Goroutines)
	}

	obs.Begin(tr, "gopointsto.extract")
	f, err := extract.Extract(res.Prog, extract.Options{})
	obs.End(tr)
	if err != nil {
		return err
	}

	cfg := analysis.Config{
		Tracer: tr, Metrics: sess.Metrics,
		Context: ctx, Budget: rflags.Budget(),
		CheckpointDir: rflags.CheckpointDir, Resume: rflags.Resume,
	}
	if noOpt {
		cfg.Plan = datalog.LegacyPlan()
	}
	var r *analysis.Result
	obs.Begin(tr, "gopointsto.analyze", obs.A("algo", algo))
	switch algo {
	case "ci":
		r, err = analysis.RunContextInsensitive(f, false, cfg)
	case "cif":
		r, err = analysis.RunContextInsensitive(f, true, cfg)
	case "otf":
		r, err = analysis.RunOnTheFly(f, cfg)
	case "cs":
		r, err = analysis.RunContextSensitive(f, nil, cfg)
	case "heap-cs":
		r, err = analysis.RunHeapCloned(f, nil, cfg)
	case "type":
		r, err = analysis.RunTypeAnalysis(f, nil, cfg)
	case "threads":
		r, err = analysis.RunThreadEscape(f, nil, cfg)
	default:
		err = fmt.Errorf("unknown algorithm %q", algo)
	}
	obs.End(tr)
	if err != nil {
		return err
	}
	if r.Degraded {
		fmt.Fprintf(os.Stderr, "gopointsto: degraded to context-insensitive result: %v\n", r.DegradedCause)
	}
	solved := r.Stats()
	fmt.Printf("%s: solved in %v, %d iterations, peak %d live BDD nodes\n",
		algo, solved.SolveTime, solved.Iterations, solved.PeakLiveNodes)
	if r.Numbering != nil {
		fmt.Printf("contexts: max %s per method, %s total reduced call paths\n",
			callgraph.FormatPathCount(r.Numbering.MaxContexts),
			callgraph.FormatPathCount(r.Numbering.TotalPaths))
	}
	pairs := r.PointsToPairs()
	fmt.Printf("points-to pairs (context-projected): %d over %d variables and %d heap objects\n",
		len(pairs), len(f.Vars), len(f.Heaps))

	if varName != "" {
		v := f.VarIndex(varName)
		if v < 0 {
			return fmt.Errorf("unknown variable %q (names are Class.method/var)", varName)
		}
		fmt.Printf("%s points to:\n", varName)
		var labels []string
		for pair := range pairs {
			if pair[0] == uint64(v) {
				labels = append(labels, heapLabel(f.Heaps[pair[1]], meta))
			}
		}
		sort.Strings(labels)
		for _, l := range labels {
			fmt.Printf("  %s\n", l)
		}
	}

	if reports["nil"] {
		printNilReport(res, f, pairs)
	}
	if reports["precision"] {
		if err := printPrecisionReport(tr, res, f, cfg); err != nil {
			return err
		}
	}
	if reports["escape"] || algo == "threads" {
		er := r
		if algo != "threads" {
			obs.Begin(tr, "gopointsto.escape")
			er, err = analysis.RunThreadEscape(f, nil, cfg)
			obs.End(tr)
			if err != nil {
				return err
			}
		}
		printEscapeReport(er, f, meta)
	}

	if benchOut != "" {
		if err := writeBench(benchOut, sess, res, f, len(pairs)); err != nil {
			return err
		}
		fmt.Printf("metrics written to %s\n", benchOut)
	}
	return nil
}

// heapLabel renders a heap object as `file:line new T` when the
// lowering metadata resolves its allocation site, else the raw name.
func heapLabel(heap string, meta *gofront.Meta) string {
	s, ok := gofront.ParseHeapSite(heap, meta)
	if !ok || !s.Pos.IsValid() {
		return heap
	}
	return fmt.Sprintf("%s:%d new %s", s.Pos.Filename, s.Pos.Line, s.Type)
}

// printPrecisionReport solves the {ci, cs, heap-cs} ladder over the
// lowered program and prints how much each refinement step shrinks
// the relations, with source-resolved allocation-site labels and the
// nil-deref heuristic as the per-mode client proxy.
func printPrecisionReport(tr obs.Tracer, res *gofront.Result, f *extract.Facts, cfg analysis.Config) error {
	obs.Begin(tr, "gopointsto.precision")
	defer obs.End(tr)
	rep, err := precision.Compare("go", f, cfg, precision.Options{
		HeapLabel: func(h int) string { return heapLabel(f.Heaps[h], res.Meta) },
		NilReport: func(pairs map[[2]uint64]bool) int {
			return len(gofront.NilDerefs(res.Prog, res.Meta, f, pairs))
		},
	})
	if err != nil {
		return err
	}
	fmt.Println()
	rep.WriteText(os.Stdout)
	return nil
}

// printNilReport lists dereferences the solver cannot prove reachable
// from any allocation site.
func printNilReport(res *gofront.Result, f *extract.Facts, pairs map[[2]uint64]bool) {
	derefs := gofront.NilDerefs(res.Prog, res.Meta, f, pairs)
	fmt.Printf("\nnil-deref report: %d dereferences of variables with empty points-to sets\n", len(derefs))
	fmt.Println("(heuristic: external and untracked values also produce empty sets — see the caveats table)")
	for i, d := range derefs {
		if i == maxReportLines {
			fmt.Printf("  ... and %d more\n", len(derefs)-maxReportLines)
			break
		}
		loc := "synthetic"
		if d.Pos.IsValid() {
			loc = d.Pos.String()
		}
		fmt.Printf("  %s: %s of %s in %s\n", loc, d.What, d.Var, d.Method)
	}
}

// printEscapeReport lists allocation sites reachable from more than
// one thread, resolved back to source positions.
func printEscapeReport(r *analysis.Result, f *extract.Facts, meta *gofront.Meta) {
	m := analysis.EscapeResults(r)
	fmt.Printf("\ngoroutine-escape report: %d captured sites, %d escaped sites, %d unneeded syncs, %d needed syncs\n",
		m.CapturedSites, m.EscapedSites, m.UnneededSyncs, m.NeededSyncs)
	escaped := make(map[uint64]bool)
	r.Relation("escaped").Iterate(func(vals []uint64) bool {
		escaped[vals[1]] = true
		return true
	})
	var sites []gofront.EscapeSite
	for h := range escaped {
		if int(h) >= len(f.Heaps) {
			continue
		}
		if s, ok := gofront.ParseHeapSite(f.Heaps[h], meta); ok {
			sites = append(sites, s)
		}
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i].Heap < sites[j].Heap })
	for i, s := range sites {
		if i == maxReportLines {
			fmt.Printf("  ... and %d more\n", len(sites)-maxReportLines)
			break
		}
		loc := "synthetic"
		if s.Pos.IsValid() {
			loc = s.Pos.String()
		}
		fmt.Printf("  %s: %s allocated in %s escapes its goroutine\n", loc, s.Type, s.Method)
	}
}

// writeBench merges the session metrics with lowering tallies and
// writes them as one metrics JSON.
func writeBench(path string, sess *obs.Session, res *gofront.Result, f *extract.Facts, pairCount int) error {
	values := sess.Metrics.Snapshot()
	st := res.Prog.Stats()
	meta := res.Meta
	values["gofront.packages"] = float64(len(meta.Packages))
	values["gofront.classes"] = float64(st.Classes)
	values["gofront.methods"] = float64(st.Methods)
	values["gofront.stmts"] = float64(st.Stmts)
	values["gofront.allocs"] = float64(st.Allocs)
	values["gofront.invokes"] = float64(st.Invokes)
	values["gofront.funcs"] = float64(meta.Funcs)
	values["gofront.closures"] = float64(meta.Closures)
	values["gofront.goroutines"] = float64(meta.Goroutines)
	values["gofront.extern_calls"] = float64(meta.ExternCalls)
	values["gofront.type_errors"] = float64(meta.TypeErrors)
	values["extract.vars"] = float64(len(f.Vars))
	values["extract.heaps"] = float64(len(f.Heaps))
	values["solve.vp_pairs"] = float64(pairCount)
	w, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteMetricsJSON(w, "gopointsto", values); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}
