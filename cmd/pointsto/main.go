// Command pointsto runs the paper's analyses on a ".jp" program file
// or on real Go packages.
//
// Usage:
//
//	pointsto [flags] prog.jp
//	pointsto [flags] ./path/to/pkg [./other/pkg/...]
//
// The argument picks the input. Exactly one argument ending in ".jp"
// is parsed as a program file. Anything else is a set of Go package
// patterns: directories inside one module, optionally with a trailing
// /... for recursion (e.g. `pointsto ./internal/order` or `pointsto
// ./...` from the module root). The packages are parsed and
// type-checked with the standard library only and lowered into the IR
// by internal/frontend/gofront. Everything after loading is shared.
//
// Algorithms (-algo): ci (Algorithm 1), cif (Algorithm 2,
// type-filtered), otf (Algorithm 3, on-the-fly call graph), cs
// (default; Algorithm 5, context-sensitive), heap-cs (Algorithm 8,
// heap cloning), type (Algorithm 6), threads (Algorithm 7 with escape
// analysis). -var prints the points-to set of one variable. -entries
// picks the analysis roots of a Go input: auto (main.main when
// present, else every exported function), main, exported, or all.
//
// Reports (-report, comma-separated):
//
//	nil        dereferences of variables with empty points-to sets
//	escape     goroutine escape analysis: allocation sites reachable
//	           from more than one thread, with source positions
//	           (runs Algorithm 7 in addition to -algo if needed)
//	precision  {ci, cs, heap-cs} mode comparison: how much each
//	           refinement shrinks the points-to and alias relations
//	           (solves all three modes regardless of -algo)
//
// Allocation sites are labeled `file:line new T` when the Go lowering
// metadata can resolve them, falling back to the raw
// Class.method@site:Type heap name for synthetic objects and .jp
// inputs. Both reports are heuristics bounded by the frontend's
// documented approximations — see the Caveats table in
// internal/frontend/gofront and DESIGN.md §11.
//
// Observability: -trace writes a Chrome trace-event file of the whole
// pipeline (load → extract → analyze → reports, with nested
// stratum/iteration/rule spans under each solve), -metrics a flat
// metrics JSON (lowering tallies, fact counts, solve time, peak live
// BDD nodes, GC count, per-cache hit ratios, relation cardinalities),
// -progress prints a periodic one-line heartbeat to stderr, and
// -cpuprofile/-memprofile write runtime/pprof profiles.
//
// Resilience: -timeout and -max-nodes bound the run (exit code 3 on
// exhaustion) and Ctrl-C cancels it cleanly (exit code 4).
// Context-sensitive runs that blow their budget degrade to the
// context-insensitive result (noted on stderr) instead of failing.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"

	"bddbddb/internal/analysis"
	"bddbddb/internal/callgraph"
	"bddbddb/internal/extract"
	"bddbddb/internal/frontend/gofront"
	"bddbddb/internal/obs"
	"bddbddb/internal/precision"
	"bddbddb/internal/program"
	"bddbddb/internal/resilience"
)

// maxReportLines caps each report's printed rows (the totals always print).
const maxReportLines = 20

// options are the command's own flags.
type options struct {
	algo, entries, report, varName string
}

func main() {
	var o options
	flag.StringVar(&o.algo, "algo", "cs", "analysis: "+strings.Join(analysis.Algorithms, "|"))
	flag.StringVar(&o.entries, "entries", "", "analysis roots of a Go input: auto (default)|main|exported|all")
	flag.StringVar(&o.report, "report", "", "comma-separated reports: nil,escape,precision")
	flag.StringVar(&o.varName, "var", "", "print the points-to set of this variable (Class.method/v)")
	var oflags obs.Flags
	oflags.Register(flag.CommandLine)
	var rflags resilience.Flags
	rflags.Register(flag.CommandLine)
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: pointsto [flags] (program.jp | ./pkg [./pkg/...])")
		flag.Usage()
		os.Exit(2)
	}
	sess, err := oflags.Start("pointsto")
	if err != nil {
		fmt.Fprintln(os.Stderr, "pointsto:", err)
		os.Exit(1)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	runErr := run(ctx, os.Stdout, sess, rflags, flag.Args(), o)
	stop()
	if err := sess.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "pointsto:", err)
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "pointsto:", runErr)
		os.Exit(resilience.ExitCode(runErr))
	}
}

func run(ctx context.Context, w io.Writer, sess *obs.Session, rflags resilience.Flags, args []string, o options) error {
	tr := sess.Tracer
	reports := make(map[string]bool)
	for _, r := range strings.Split(o.report, ",") {
		r = strings.TrimSpace(r)
		if r == "" {
			continue
		}
		if r != "nil" && r != "escape" && r != "precision" {
			return fmt.Errorf("unknown report %q (want nil, escape, or precision)", r)
		}
		reports[r] = true
	}

	prog, meta, err := load(w, sess, args, o.entries)
	if err != nil {
		return err
	}
	obs.Begin(tr, "pointsto.extract")
	f, err := extract.Extract(prog, extract.Options{})
	obs.End(tr)
	if err != nil {
		return err
	}
	sess.Metrics.Set("extract.vars", float64(len(f.Vars)))
	sess.Metrics.Set("extract.heaps", float64(len(f.Heaps)))

	cfg := analysis.Config{
		Tracer: tr, Metrics: sess.Metrics,
		Context: ctx, Budget: rflags.Budget(),
	}
	obs.Begin(tr, "pointsto.analyze", obs.A("algo", o.algo))
	r, err := analysis.Run(o.algo, f, cfg)
	obs.End(tr)
	if err != nil {
		return err
	}
	if r.Degraded {
		fmt.Fprintf(os.Stderr, "pointsto: degraded to context-insensitive result: %v\n", r.DegradedCause)
	}
	if sess.MetricsRequested() {
		r.Solver.RecordRelationSizes(sess.Metrics)
	}
	solved := r.Stats()
	fmt.Fprintf(w, "%s: solved in %v, %d iterations, peak %d live BDD nodes\n",
		o.algo, solved.SolveTime, solved.Iterations, solved.PeakLiveNodes)
	if r.Numbering != nil {
		fmt.Fprintf(w, "contexts: max %s per method, %s total reduced call paths\n",
			callgraph.FormatPathCount(r.Numbering.MaxContexts),
			callgraph.FormatPathCount(r.Numbering.TotalPaths))
	}
	if o.algo == "type" {
		fmt.Fprintf(w, "vTC: %s tuples\n", r.RelationSize("vTC"))
	}
	if o.algo == "threads" {
		m := analysis.EscapeResults(r)
		fmt.Fprintf(w, "captured sites: %d, escaped sites: %d, unneeded syncs: %d, needed syncs: %d\n",
			m.CapturedSites, m.EscapedSites, m.UnneededSyncs, m.NeededSyncs)
	}
	// Algorithm 6 computes no points-to relation: no pair count is
	// printed or exported for it, and nothing can read pairs.
	var pairs map[[2]uint64]bool
	if r.HasPointsTo() {
		pairs = r.PointsToPairs()
		sess.Metrics.Set("solve.vp_pairs", float64(len(pairs)))
		fmt.Fprintf(w, "points-to pairs (context-projected): %d over %d variables and %d heap objects\n",
			len(pairs), len(f.Vars), len(f.Heaps))
	} else if o.varName != "" || reports["nil"] {
		return fmt.Errorf("-algo %s computes no points-to relation for -var or -report nil", o.algo)
	}

	if o.varName != "" {
		v := f.VarIndex(o.varName)
		if v < 0 {
			return fmt.Errorf("unknown variable %q (names are Class.method/var)", o.varName)
		}
		fmt.Fprintf(w, "%s points to:\n", o.varName)
		var labels []string
		for pair := range pairs {
			if pair[0] == uint64(v) {
				labels = append(labels, heapLabel(f.Heaps[pair[1]], meta))
			}
		}
		sort.Strings(labels)
		for _, l := range labels {
			fmt.Fprintf(w, "  %s\n", l)
		}
	}

	if reports["nil"] {
		printNilReport(w, prog, meta, f, pairs)
	}
	if reports["precision"] {
		workload := "go"
		if isProgramFile(args) {
			workload = strings.TrimSuffix(filepath.Base(args[0]), ".jp")
		}
		if err := printPrecisionReport(w, workload, prog, meta, f, cfg); err != nil {
			return err
		}
	}
	if reports["escape"] || o.algo == "threads" {
		er := r
		if o.algo != "threads" {
			obs.Begin(tr, "pointsto.escape")
			er, err = analysis.RunThreadEscape(f, nil, cfg)
			obs.End(tr)
			if err != nil {
				return err
			}
		}
		printEscapeReport(w, er, f, meta)
	}
	return nil
}

// load reads the input program: one .jp file, or Go package patterns
// lowered by gofront. A .jp input gets empty lowering metadata, so
// reports and labels fall back to raw names.
func load(w io.Writer, sess *obs.Session, args []string, entries string) (*program.Program, *gofront.Meta, error) {
	tr := sess.Tracer
	if isProgramFile(args) {
		if entries != "" {
			return nil, nil, errors.New("-entries applies only to Go package inputs, not .jp files")
		}
		src, err := os.ReadFile(args[0])
		if err != nil {
			return nil, nil, err
		}
		obs.Begin(tr, "pointsto.parse")
		prog, err := program.Parse(string(src))
		obs.End(tr)
		return prog, &gofront.Meta{}, err
	}

	obs.Begin(tr, "pointsto.lower")
	res, err := gofront.Lower(args, gofront.Options{Entries: gofront.EntryMode(entries)})
	obs.End(tr)
	if err != nil {
		return nil, nil, err
	}
	meta := res.Meta
	st := res.Prog.Stats()
	fmt.Fprintf(w, "lowered %d packages (%d requested): %d classes, %d methods, %d stmts, %d allocation sites\n",
		len(meta.Packages), len(meta.Requested), st.Classes, st.Methods, st.Stmts, st.Allocs)
	if meta.TypeErrors > 0 {
		fmt.Fprintf(w, "tolerated %d type errors from placeholder imports (external code is opaque)\n", meta.TypeErrors)
	}
	if meta.Goroutines > 0 {
		fmt.Fprintf(w, "goroutines: %d spawn sites lowered as Thread subclasses\n", meta.Goroutines)
	}
	for name, v := range map[string]int{
		"packages":     len(meta.Packages),
		"classes":      st.Classes,
		"methods":      st.Methods,
		"stmts":        st.Stmts,
		"allocs":       st.Allocs,
		"invokes":      st.Invokes,
		"funcs":        meta.Funcs,
		"closures":     meta.Closures,
		"goroutines":   meta.Goroutines,
		"extern_calls": meta.ExternCalls,
		"type_errors":  meta.TypeErrors,
	} {
		sess.Metrics.Set("gofront."+name, float64(v))
	}
	return res.Prog, meta, nil
}

// isProgramFile reports whether the arguments name one .jp file rather
// than Go package patterns.
func isProgramFile(args []string) bool {
	return len(args) == 1 && strings.HasSuffix(args[0], ".jp")
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
// program and prints how much each refinement step shrinks the
// relations, with source-resolved allocation-site labels and the
// nil-deref heuristic as the per-mode client proxy.
func printPrecisionReport(w io.Writer, workload string, prog *program.Program, meta *gofront.Meta, f *extract.Facts, cfg analysis.Config) error {
	obs.Begin(cfg.Tracer, "pointsto.precision")
	defer obs.End(cfg.Tracer)
	rep, err := precision.Compare(workload, f, cfg, precision.Options{
		HeapLabel: func(h int) string { return heapLabel(f.Heaps[h], meta) },
		NilReport: func(pairs map[[2]uint64]bool) int {
			return len(gofront.NilDerefs(prog, meta, f, pairs))
		},
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w)
	rep.WriteText(w)
	return nil
}

// printNilReport lists dereferences the solver cannot prove reachable
// from any allocation site.
func printNilReport(w io.Writer, prog *program.Program, meta *gofront.Meta, f *extract.Facts, pairs map[[2]uint64]bool) {
	derefs := gofront.NilDerefs(prog, meta, f, pairs)
	fmt.Fprintf(w, "\nnil-deref report: %d dereferences of variables with empty points-to sets\n", len(derefs))
	fmt.Fprintln(w, "(heuristic: external and untracked values also produce empty sets — see the caveats table)")
	for i, d := range derefs {
		if i == maxReportLines {
			fmt.Fprintf(w, "  ... and %d more\n", len(derefs)-maxReportLines)
			break
		}
		loc := "synthetic"
		if d.Pos.IsValid() {
			loc = d.Pos.String()
		}
		fmt.Fprintf(w, "  %s: %s of %s in %s\n", loc, d.What, d.Var, d.Method)
	}
}

// printEscapeReport lists allocation sites reachable from more than
// one thread, resolved back to source positions.
func printEscapeReport(w io.Writer, r *analysis.Result, f *extract.Facts, meta *gofront.Meta) {
	m := analysis.EscapeResults(r)
	fmt.Fprintf(w, "\ngoroutine-escape report: %d captured sites, %d escaped sites, %d unneeded syncs, %d needed syncs\n",
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
		s, ok := gofront.ParseHeapSite(f.Heaps[h], meta)
		if !ok {
			s = gofront.EscapeSite{Heap: f.Heaps[h]}
		}
		sites = append(sites, s)
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i].Heap < sites[j].Heap })
	for i, s := range sites {
		if i == maxReportLines {
			fmt.Fprintf(w, "  ... and %d more\n", len(sites)-maxReportLines)
			break
		}
		if s.Method == "" {
			fmt.Fprintf(w, "  %s (no allocation site) escapes its goroutine\n", s.Heap)
			continue
		}
		loc := "synthetic"
		if s.Pos.IsValid() {
			loc = s.Pos.String()
		}
		fmt.Fprintf(w, "  %s: %s allocated in %s escapes its goroutine\n", loc, s.Type, s.Method)
	}
}
