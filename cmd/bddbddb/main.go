// Command bddbddb evaluates a Datalog program over BDD relations, in
// the spirit of the paper's tool of the same name.
//
// Usage:
//
//	bddbddb [-check] [-Werror] [-explain] [-order C_I_V] [-print rel1,rel2] [-facts dir] program.dl
//
// Programs are parsed and semantically checked first; diagnostics are
// reported as file:line:col: DLxxx: message (see the DL-code catalog in
// internal/datalog/check). -check stops after the analysis — exit
// status 1 if any errors were reported, 0 otherwise. -Werror promotes
// warnings to errors in both modes.
//
// Input relations are loaded from <facts>/<relation>.tuples, one tuple
// per line as whitespace-separated integers (lines starting with # are
// comments). Missing files leave the relation empty. After solving,
// the sizes of all output relations are printed; -print additionally
// dumps the named relations' tuples.
//
// -explain prints every rule's relational-algebra plan before and
// after the optimizer's rewrites (join reordering, projection
// push-down, dead-op elimination, normalization hoisting) and exits
// without solving.
//
// Observability: -trace writes a Chrome trace-event file of the solve
// (stratum → iteration → rule → op spans), -metrics a flat metrics JSON,
// -progress prints a periodic one-line heartbeat to stderr, and
// -cpuprofile/-memprofile write runtime/pprof profiles.
//
// Resilience: -timeout and -max-nodes bound the run (exit code 3 on
// exhaustion), and Ctrl-C cancels it cleanly (exit code 4).
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"bddbddb/internal/datalog"
	"bddbddb/internal/datalog/check"
	"bddbddb/internal/obs"
	"bddbddb/internal/resilience"
)

func main() {
	checkOnly := flag.Bool("check", false, "parse and check the program, report diagnostics, and exit")
	wError := flag.Bool("Werror", false, "treat checker warnings as errors")
	orderFlag := flag.String("order", "", "variable order: logical domain names separated by '_'")
	printFlag := flag.String("print", "", "comma-separated output relations to dump")
	factsDir := flag.String("facts", ".", "directory holding <relation>.tuples input files")
	ruleStats := flag.Bool("rulestats", false, "print per-rule applications, time, and derived tuples")
	explain := flag.Bool("explain", false, "print each rule's execution plan before/after optimization and exit without solving")
	var oflags obs.Flags
	oflags.Register(flag.CommandLine)
	var rflags resilience.Flags
	rflags.Register(flag.CommandLine)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: bddbddb [flags] program.dl")
		flag.Usage()
		os.Exit(2)
	}
	sess, err := oflags.Start("bddbddb")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bddbddb:", err)
		os.Exit(1)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	status := run(ctx, sess, rflags, flag.Arg(0), *checkOnly, *wError, *explain, *orderFlag, *printFlag, *factsDir, *ruleStats)
	stop()
	if err := sess.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "bddbddb:", err)
		if status == 0 {
			status = 1
		}
	}
	os.Exit(status)
}

// run executes the tool and returns the process exit status: 0 on
// success, 1 when the program is rejected or evaluation fails, 3 when a
// -timeout/-max-nodes budget is exhausted, 4 on Ctrl-C, 5 on an
// internal solver failure.
func run(ctx context.Context, sess *obs.Session, rflags resilience.Flags, path string, checkOnly, wError, explain bool, order, printRels, factsDir string, ruleStats bool) int {
	src, err := os.ReadFile(path)
	if err != nil {
		return fail(err)
	}
	prog, diags, err := datalog.ParseAndCheck(path, string(src))
	if err != nil {
		// Syntax error: a single DL000 diagnostic.
		var ce *check.Error
		if errors.As(err, &ce) {
			reportDiags(ce.Diags)
			return 1
		}
		return fail(err)
	}
	if wError {
		diags = diags.Promote()
	}
	// Validate -print names against the program's relation table before
	// solving, so typos fail fast instead of silently printing nothing.
	toPrint := map[string]bool{}
	for _, n := range strings.Split(printRels, ",") {
		if n == "" {
			continue
		}
		if prog.Relation(n) == nil {
			diags = append(diags, check.Diag{
				Code:     check.CodeRelation,
				Severity: check.SevError,
				File:     path,
				Message:  fmt.Sprintf("-print names undeclared relation %s", n),
			})
		}
		toPrint[n] = true
	}
	diags.Sort()
	reportDiags(diags)
	if diags.HasErrors() {
		return 1
	}
	if checkOnly {
		return 0
	}

	opts := datalog.Options{
		CountRuleTuples: ruleStats,
		Tracer:          sess.Tracer,
		Metrics:         sess.Metrics,
		Control:         rflags.Controller(ctx),
	}
	if order != "" {
		opts.Order = strings.Split(order, "_")
	}
	// Element names from map files referenced by the program.
	opts.ElemNames = map[string][]string{}
	for _, d := range prog.Domains {
		if d.MapFile == "" {
			continue
		}
		names, err := readLines(filepath.Join(factsDir, d.MapFile))
		if err == nil {
			opts.ElemNames[d.Name] = names
		}
	}
	s, err := datalog.NewSolver(prog, opts)
	if err != nil {
		return fail(err)
	}
	for _, rd := range prog.Relations {
		if rd.Kind != datalog.RelInput {
			continue
		}
		if err := loadTuples(s, prog, factsDir, rd.Name); err != nil {
			var ce *check.Error
			if errors.As(err, &ce) {
				reportDiags(ce.Diags)
				return 1
			}
			return fail(err)
		}
	}
	if explain {
		// Facts are loaded, so the plans print with the cardinalities
		// the planner would actually see at stratum 0.
		s.Explain(os.Stdout)
		return 0
	}
	if err := s.Solve(); err != nil {
		return fail(err)
	}
	if sess.MetricsRequested() {
		s.RecordRelationSizes(sess.Metrics)
	}
	st := s.Stats()
	fmt.Printf("solved in %v: %d rule applications, %d iterations, peak %d live BDD nodes\n",
		st.SolveTime, st.RuleApplications, st.Iterations, st.PeakLiveNodes)
	if ruleStats {
		for _, rs := range st.Rules {
			fmt.Printf("rule %-60s apps=%-6d time=%-12v tuples=%d\n",
				rs.Rule, rs.Applications, rs.Time.Round(time.Microsecond), rs.DeltaTuples)
		}
	}
	for _, rd := range prog.Relations {
		if rd.Kind != datalog.RelOutput && !toPrint[rd.Name] {
			continue
		}
		r := s.Relation(rd.Name)
		fmt.Printf("%s: %s tuples\n", rd.Name, r.Size())
		if toPrint[rd.Name] {
			// Tuples() sorts, so dumps list tuples in value order.
			for _, vals := range r.Tuples() {
				parts := make([]string, len(vals))
				for i, v := range vals {
					parts[i] = strconv.FormatUint(v, 10)
				}
				fmt.Printf("  (%s)\n", strings.Join(parts, ", "))
			}
		}
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "bddbddb:", err)
	return resilience.ExitCode(err)
}

func reportDiags(ds check.Diags) {
	for _, d := range ds {
		fmt.Fprintln(os.Stderr, d)
	}
}

// loadTuples fills one input relation from <dir>/<name>.tuples. Rows
// are fully validated against the relation's declared schema before
// they reach the BDD layer, so malformed user input surfaces as a
// positioned DL110 diagnostic (file:line within the .tuples file)
// instead of a panic out of rel.AddTuple.
func loadTuples(s *datalog.Solver, prog *datalog.Program, dir, name string) error {
	path := filepath.Join(dir, name+".tuples")
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	defer f.Close()
	decl := prog.Relation(name)
	sizes := make([]uint64, len(decl.Attrs))
	for i, a := range decl.Attrs {
		sizes[i] = prog.Domain(a.Domain).Size
	}
	var rows [][]uint64
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != len(decl.Attrs) {
			return check.Errorf(check.CodeTupleInput, path, line, 1,
				"%s has arity %d, row has %d fields", name, len(decl.Attrs), len(fields))
		}
		vals := make([]uint64, len(fields))
		for i, fstr := range fields {
			v, err := strconv.ParseUint(fstr, 10, 64)
			if err != nil {
				return check.Errorf(check.CodeTupleInput, path, line, 1,
					"bad value %q for attribute %s", fstr, decl.Attrs[i].Name)
			}
			if v >= sizes[i] {
				return check.Errorf(check.CodeTupleInput, path, line, 1,
					"value %d out of range for attribute %s (domain %s has size %d)",
					v, decl.Attrs[i].Name, decl.Attrs[i].Domain, sizes[i])
			}
			vals[i] = v
		}
		rows = append(rows, vals)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	s.Relation(name).AddTuples(rows)
	return nil
}

func readLines(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		out = append(out, sc.Text())
	}
	return out, sc.Err()
}
