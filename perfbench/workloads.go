package main

import (
	"fmt"
	"runtime"
	"time"

	"bddbddb/internal/analysis"
	"bddbddb/internal/callgraph"
	"bddbddb/internal/datalog"
	"bddbddb/internal/extract"
	"bddbddb/internal/program"
	"bddbddb/internal/synth"
)

// Repetition counts. Set-up repeats so setup_s is a median of real
// work; the batch analyses repeat while their share of --seconds lasts.
const (
	stdlibSetups = 3
	ladderSetups = 5
	serveSetups  = 5
	// batchShare is the part of --seconds the batch workloads budget for
	// the analysis (one iteration takes longer, so it runs once); the
	// rest is the query phase of serving the result.
	batchShare = 0.4
)

// markSpans starts the window of the per-layer span metrics (traced
// runs) at the repetition whose counters the run reports.
func (b *bench) markSpans(skip string) {
	if b.tr != nil {
		b.tr.mark(skip)
	}
}

// fresh collects the garbage of earlier repetitions, untimed, so each
// repetition starts from the heap a fresh process would have.
func fresh() { runtime.GC() }

// repeat runs iter at least once and again while another iteration of
// the last one's length still fits in budget.
func repeat(budget time.Duration, iter func() (time.Duration, error)) ([]time.Duration, error) {
	start := time.Now()
	var ds []time.Duration
	for {
		fresh()
		d, err := iter()
		if err != nil {
			return nil, err
		}
		ds = append(ds, d)
		if time.Since(start)+d > budget {
			return ds, nil
		}
	}
}

func (b *bench) budget(share float64) time.Duration {
	return time.Duration(share * b.seconds * float64(time.Second))
}

// setupTimes collects the repeated set-ups; the last set-up's products
// are the ones the run continues with.
type setupTimes struct{ total, frontend, extract []float64 }

func (st *setupTimes) add(total, frontend, extract time.Duration) {
	st.total = append(st.total, total.Seconds())
	st.frontend = append(st.frontend, frontend.Seconds())
	st.extract = append(st.extract, extract.Seconds())
}

func (b *bench) reportSetup(st setupTimes) {
	b.note("setup_runs_s", st.total)
	b.setE2E("setup_s", "s", median(st.total))
	b.setLayer("frontend.lower_s", "s", median(st.frontend))
	b.setLayer("extract.extract_s", "s", median(st.extract))
}

// reportAnalysis publishes the analysis repetitions and, for a traced
// run, keeps one analysis for the untraced rerun that prices tracing.
func (b *bench) reportAnalysis(times []float64, peak float64, acc *solveAcc, analyze func(*solveAcc) (time.Duration, error)) {
	b.note("analysis_runs_s", times)
	b.setE2E("analysis_s", "s", median(times))
	b.setE2E("peak_live_nodes", "count", peak)
	b.reportSolves(acc)
	b.reportSpans()
	b.tracedAnalysis = median(times)
	b.rerun = analyze
}

// generate is the synthetic frontend's public entry point, timed.
func (b *bench) generate(p synth.Params) (*program.Program, time.Duration) {
	var prog *program.Program
	d, _ := span(b.tr, "synth.Generate", func() error {
		prog = synth.Generate(p)
		return nil
	})
	return prog, d
}

// runStdlib is gopointsto's cs path (-backend auto -entries auto) on
// the GOROOT packages: Lower + Extract (set-up), then Algorithm 3
// discovery and Algorithm 5 over that graph (analysis_s).
func runStdlib(b *bench) error {
	b.note("stdlib_packages", stdlibPackages)
	b.note("input_seed", "unused: the stdlib input is fixed; the seed drives the serve tail's traffic")
	var st setupTimes
	var prog *program.Program
	var f *extract.Facts
	for i := 0; i < stdlibSetups; i++ {
		fresh()
		res, dl, err := b.lowerStdlib()
		if err != nil {
			return err
		}
		var de time.Duration
		f, de, err = b.extractFacts(res.Prog)
		if err != nil {
			return err
		}
		prog = res.Prog
		st.add(dl+de, dl, de)
	}
	b.reportSetup(st)
	b.frontendStats(prog, f)

	cfg := analysis.Config{}
	cfg.Plan.Backend = datalog.BackendAuto
	var ci, cs *analysis.Result
	analyze := func(acc *solveAcc) (time.Duration, error) {
		ci, cs = nil, nil
		var g *callgraph.Graph
		var dd, dc time.Duration
		var err error
		if ci, g, dd, err = b.discover(acc, f, cfg); err != nil {
			return 0, err
		}
		cs, dc, err = b.solve(acc, "analysis.RunContextSensitive", cfg, func(c analysis.Config) (*analysis.Result, error) {
			return analysis.RunContextSensitive(f, g, c)
		})
		if acc != nil {
			acc.cs = dc
		}
		return dd + dc, err
	}
	var acc *solveAcc
	times, err := repeat(b.budget(batchShare), func() (time.Duration, error) {
		acc = newSolveAcc()
		b.markSpans("")
		return analyze(acc)
	})
	if err != nil {
		return err
	}
	b.reportAnalysis(secs(times), float64(acc.peak), acc, analyze)

	var csPairs map[[2]uint64]bool
	_, err = span(b.tr, "check.stdlib", func() error {
		ciPairs := ci.PointsToPairs()
		ci = nil
		if err := b.gateCI(f, ciPairs); err != nil {
			return err
		}
		csPairs = cs.PointsToPairs()
		ok, p := subset(csPairs, ciPairs)
		b.check(ok, "stdlib cs pair (%d,%d) not in ci", p[0], p[1])
		b.note("cs_pairs", len(csPairs))
		return nil
	})
	if err != nil {
		return err
	}
	return b.serveTail(cs, f, csPairs)
}

// ladderParams is pmd, the paper's deepest synthetic configuration,
// with the config's own seed. Regenerating a same-shape program from
// the run seed moved the ladder's analysis time by up to 20% between
// seeds (14.0-17.2 s on seeds 1-3, 2 vCPUs), so the seed drives the
// serve tail's traffic only.
func ladderParams() synth.Params { return synth.BenchmarkByName("pmd").Params }

// runLadder is the precision ladder on pmd: generation, extraction and
// Algorithm 3 discovery (set-up: the pre-computed call graph Algorithm
// 5 assumes), then the cs (Algorithm 5) and heap-cs (Algorithm 8) rungs
// over that one graph (analysis_s).
func runLadder(b *bench) error {
	p := ladderParams()
	b.note("input_seed", fmt.Sprintf("pmd is the config's own program (Seed=%d); the seed drives the serve tail's traffic", p.Seed))
	var st setupTimes
	var prog *program.Program
	var f *extract.Facts
	var ci *analysis.Result
	var g *callgraph.Graph
	var setupAcc *solveAcc
	for i := 0; i < ladderSetups; i++ {
		fresh()
		var dg, de, dd time.Duration
		var err error
		prog, dg = b.generate(p)
		if f, de, err = b.extractFacts(prog); err != nil {
			return err
		}
		setupAcc = newSolveAcc()
		if ci, g, dd, err = b.discover(setupAcc, f, analysis.Config{}); err != nil {
			return err
		}
		st.add(dg+de+dd, dg, de)
	}
	b.reportSetup(st)
	b.frontendStats(prog, f)

	var cs, heap *analysis.Result
	analyze := func(acc *solveAcc) (time.Duration, error) {
		cs, heap = nil, nil
		var dc, dh time.Duration
		var err error
		cs, dc, err = b.solve(acc, "analysis.RunContextSensitive", analysis.Config{}, func(c analysis.Config) (*analysis.Result, error) {
			return analysis.RunContextSensitive(f, g, c)
		})
		if err != nil {
			return 0, err
		}
		heap, dh, err = b.solve(acc, "analysis.RunHeapCloned", analysis.Config{}, func(c analysis.Config) (*analysis.Result, error) {
			return analysis.RunHeapCloned(f, g, c)
		})
		if acc != nil {
			acc.cs, acc.heapCS = dc, dh
		}
		return dc + dh, err
	}
	var acc *solveAcc
	times, err := repeat(b.budget(batchShare), func() (time.Duration, error) {
		acc = newSolveAcc()
		acc.discover = setupAcc.discover
		b.markSpans("")
		return analyze(acc)
	})
	if err != nil {
		return err
	}
	b.reportAnalysis(secs(times), float64(max(acc.peak, setupAcc.peak)), acc, analyze)

	var csPairs map[[2]uint64]bool
	span(b.tr, "check.ladder", func() error {
		ref := analysis.ReferenceOnTheFly(f, true).VPSet()
		ciPairs := ci.PointsToPairs()
		csPairs = cs.PointsToPairs()
		heapPairs := heap.PointsToPairs()
		heap = nil
		b.check(len(ref) == len(ciPairs) && pairsDigest(f, ref) == pairsDigest(f, ciPairs),
			"pmd ci pairs %d != oracle %d", len(ciPairs), len(ref))
		ok, q := subset(csPairs, ciPairs)
		b.check(ok, "pmd cs pair (%d,%d) not in ci", q[0], q[1])
		ok, q = subset(heapPairs, csPairs)
		b.check(ok, "pmd heap-cs pair (%d,%d) not in cs", q[0], q[1])
		b.note("ladder_pairs", map[string]int{"oracle": len(ref), "ci": len(ciPairs), "cs": len(csPairs), "heap-cs": len(heapPairs)})
		return nil
	})
	return b.serveTail(cs, f, csPairs)
}

// serveParams is megamek, served as bddbddbd -synth megamek serves it;
// the program is the config's own, the seed drives the traffic.
func serveParams() synth.Params { return synth.BenchmarkByName("megamek").Params }

// daemonAnalysisConfig mirrors bddbddbd's startup solve: -algo cs with
// -update-slack 64 and the library's default plan.
func daemonAnalysisConfig() analysis.Config { return analysis.Config{DomainSlack: 64} }

// runServeMixed is bddbddbd on megamek: start-to-ready (generate,
// extract, solve, serve.New) is the set-up, then a closed loop of
// mixed queries with live updates.
func runServeMixed(b *bench) error {
	b.note("input_seed", "megamek is the config's own program; the seed drives queries and update deltas")
	var st setupTimes
	var analysisTimes []float64
	peak := 0
	var sv *startedServer
	var f *extract.Facts
	var cs *analysis.Result
	// The daemon's one call: RunContextSensitive discovers the call
	// graph itself (Algorithm 3, without the domain slack) and keeps
	// the ci result as its degradation fallback. The counters cover the
	// cs solve the call returns; the span window leaves out the
	// discovery nested under analysis.discover to match.
	analyze := func(acc *solveAcc) (time.Duration, error) {
		var d time.Duration
		var err error
		cs, d, err = b.solve(acc, "analysis.RunContextSensitive", daemonAnalysisConfig(), func(c analysis.Config) (*analysis.Result, error) {
			return analysis.RunContextSensitive(f, nil, c)
		})
		if acc != nil && b.tr != nil {
			acc.discover = b.tr.total("analysis.discover")
			acc.cs = d - acc.discover
		}
		return d, err
	}
	var acc *solveAcc
	for i := 0; i < serveSetups; i++ {
		if sv != nil {
			sv.close()
		}
		fresh()
		t0 := time.Now()
		prog, dg := b.generate(serveParams())
		var de time.Duration
		var err error
		if f, de, err = b.extractFacts(prog); err != nil {
			return err
		}
		acc = newSolveAcc()
		b.markSpans("analysis.discover")
		da, err := analyze(acc)
		if err != nil {
			return err
		}
		if sv, err = b.startServer(cs, f); err != nil {
			return err
		}
		st.add(time.Since(t0), dg, de)
		analysisTimes = append(analysisTimes, da.Seconds())
		peak = max(peak, acc.peak)
		if i == 0 {
			b.frontendStats(prog, f)
		}
	}
	b.reportSetup(st)
	b.reportAnalysis(analysisTimes, float64(peak), acc, analyze)
	return b.runLoad(sv, loadSpec{duration: b.budget(1), updateEvery: serveUpdateEvery})
}

// serveTail is the serve phase after a batch workload: the daemon's
// read-only query path over the workload's own cs result.
func (b *bench) serveTail(cs *analysis.Result, f *extract.Facts, pairs map[[2]uint64]bool) error {
	sv, err := b.startServer(cs, f)
	if err != nil {
		return err
	}
	sv.pairs = pairs
	return b.runLoad(sv, loadSpec{duration: b.budget(1 - batchShare)})
}

// traceOverhead prices tracing in a traced run: after the workload it
// reruns one analysis with the recorder detached and reports traced
// over untraced analysis time. A ratio stays positive where a
// difference of two noisy times can fall below zero.
func (b *bench) traceOverhead() error {
	if b.tr == nil || b.rerun == nil {
		return nil
	}
	tr := b.tr
	fresh()
	tr.Begin("trace.untraced_rerun")
	b.tr = nil
	d, err := b.rerun(nil)
	b.tr = tr
	tr.End()
	if err != nil {
		return fmt.Errorf("untraced rerun: %w", err)
	}
	b.setLayer("trace.overhead_ratio", "ratio", b.tracedAnalysis/d.Seconds())
	return nil
}
