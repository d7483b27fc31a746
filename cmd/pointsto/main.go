// Command pointsto runs the paper's analyses on a ".jp" program file.
//
// Usage:
//
//	pointsto -algo ci|cif|otf|cs|type|threads [-var Class.method/v] prog.jp
//
// Algorithms: ci (Algorithm 1), cif (Algorithm 2, type-filtered), otf
// (Algorithm 3, on-the-fly call graph), cs (Algorithm 5,
// context-sensitive), type (Algorithm 6), threads (Algorithm 7 with
// escape analysis). -var prints the points-to set of one variable.
//
// Observability: -trace writes a Chrome trace-event file of the whole
// pipeline (parse → extract → analyze → query, with nested
// stratum/iteration/rule spans under each solve), -metrics a flat
// metrics JSON (solve time, peak live BDD nodes, GC count, per-cache
// hit ratios, relation cardinalities), -v logs phase progress to
// stderr, and -cpuprofile/-memprofile write runtime/pprof profiles.
//
// Resilience: -timeout and -max-nodes bound the run (exit code 3 on
// exhaustion), Ctrl-C cancels it cleanly (exit code 4), -checkpoint-dir
// and -resume save/restore the solve across runs. Context-sensitive
// runs that blow their budget degrade to the context-insensitive
// result (noted on stderr) instead of failing.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"bddbddb/internal/analysis"
	"bddbddb/internal/callgraph"
	"bddbddb/internal/datalog"
	"bddbddb/internal/extract"
	"bddbddb/internal/obs"
	"bddbddb/internal/program"
	"bddbddb/internal/resilience"
)

func main() {
	algo := flag.String("algo", "otf", "analysis: ci|cif|otf|cs|type|threads")
	varName := flag.String("var", "", "print the points-to set of this variable (Class.method/v)")
	noOpt := flag.Bool("noopt", false, "disable the Datalog plan optimizer (pinned textual-order execution)")
	var oflags obs.Flags
	oflags.Register(flag.CommandLine)
	var rflags resilience.Flags
	rflags.Register(flag.CommandLine)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: pointsto [flags] program.jp")
		flag.Usage()
		os.Exit(2)
	}
	sess, err := oflags.Start("pointsto")
	if err != nil {
		fmt.Fprintln(os.Stderr, "pointsto:", err)
		os.Exit(1)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	runErr := run(ctx, sess, rflags, flag.Arg(0), *algo, *varName, *noOpt)
	stop()
	if err := sess.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "pointsto:", err)
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "pointsto:", runErr)
		os.Exit(resilience.ExitCode(runErr))
	}
}

func run(ctx context.Context, sess *obs.Session, rflags resilience.Flags, path, algo, varName string, noOpt bool) error {
	tr := sess.Tracer
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	obs.Begin(tr, "pointsto.parse")
	prog, err := program.Parse(string(src))
	obs.End(tr)
	if err != nil {
		return err
	}
	obs.Begin(tr, "pointsto.extract")
	f, err := extract.Extract(prog, extract.Options{})
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
	var res *analysis.Result
	obs.Begin(tr, "pointsto.analyze", obs.A("algo", algo))
	switch algo {
	case "ci":
		res, err = analysis.RunContextInsensitive(f, false, cfg)
	case "cif":
		res, err = analysis.RunContextInsensitive(f, true, cfg)
	case "otf":
		res, err = analysis.RunOnTheFly(f, cfg)
	case "cs":
		res, err = analysis.RunContextSensitive(f, nil, cfg)
	case "type":
		res, err = analysis.RunTypeAnalysis(f, nil, cfg)
	case "threads":
		res, err = analysis.RunThreadEscape(f, nil, cfg)
	default:
		err = fmt.Errorf("unknown algorithm %q", algo)
	}
	obs.End(tr)
	if err != nil {
		return err
	}
	if res.Degraded {
		fmt.Fprintf(os.Stderr, "pointsto: degraded to context-insensitive result: %v\n", res.DegradedCause)
	}
	obs.Begin(tr, "pointsto.query")
	defer obs.End(tr)
	st := res.Stats()
	fmt.Printf("%s: solved in %v, %d iterations, peak %d live BDD nodes\n",
		algo, st.SolveTime, st.Iterations, st.PeakLiveNodes)
	if res.Numbering != nil {
		fmt.Printf("contexts: max %s per method, %s total reduced call paths\n",
			callgraph.FormatPathCount(res.Numbering.MaxContexts),
			callgraph.FormatPathCount(res.Numbering.TotalPaths))
	}
	switch algo {
	case "type":
		fmt.Printf("vTC: %s tuples\n", res.RelationSize("vTC"))
	case "threads":
		m := analysis.EscapeResults(res)
		fmt.Printf("captured sites: %d, escaped sites: %d, unneeded syncs: %d, needed syncs: %d\n",
			m.CapturedSites, m.EscapedSites, m.UnneededSyncs, m.NeededSyncs)
	default:
		pairs := res.PointsToPairs()
		fmt.Printf("points-to pairs (context-projected): %d\n", len(pairs))
	}
	if varName != "" {
		v := f.VarIndex(varName)
		if v < 0 {
			return fmt.Errorf("unknown variable %q (names are Class.method/var)", varName)
		}
		fmt.Printf("%s points to:\n", varName)
		for pair := range res.PointsToPairs() {
			if pair[0] == uint64(v) {
				fmt.Printf("  %s\n", f.Heaps[pair[1]])
			}
		}
	}
	return nil
}
