package analysis

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"bddbddb/internal/datalog"
	"bddbddb/internal/extract"
	"bddbddb/internal/obs"
	"bddbddb/internal/resilience"
	"bddbddb/internal/synth"
)

// synthFacts extracts facts from a generated benchmark — big enough to
// force BDD table growth, which the tiny inline programs never do.
func synthFacts(t *testing.T, name string) *extract.Facts {
	t.Helper()
	b := synth.BenchmarkByName(name)
	if b == nil {
		t.Fatalf("unknown synthetic benchmark %q", name)
	}
	f, err := extract.Extract(synth.Generate(b.Params), extract.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// entryPoints lists every analysis entry point (Algorithms 1-8 and the
// context-insensitive type analysis) with a program that exercises it
// and a comparator over its primary output.
// degrades marks the context-sensitive entry points that fall back to
// the context-insensitive result on budget/cancel instead of failing.
var entryPoints = []struct {
	name     string
	src      string
	degrades bool
	run      func(f *extract.Facts, cfg Config) (*Result, error)
	same     func(t *testing.T, got, want *Result)
}{
	{"algo1_ci", polySrc, false,
		func(f *extract.Facts, cfg Config) (*Result, error) { return RunContextInsensitive(f, false, cfg) },
		samePointsTo},
	{"algo2_cif", polySrc, false,
		func(f *extract.Facts, cfg Config) (*Result, error) { return RunContextInsensitive(f, true, cfg) },
		samePointsTo},
	{"algo3_otf", dispatchSrc, false,
		func(f *extract.Facts, cfg Config) (*Result, error) { return RunOnTheFly(f, cfg) },
		samePointsTo},
	{"algo5_cs", polySrc, true,
		func(f *extract.Facts, cfg Config) (*Result, error) { return RunContextSensitive(f, nil, cfg) },
		samePointsTo},
	{"algo5_csotf", dispatchSrc, true,
		func(f *extract.Facts, cfg Config) (*Result, error) { return RunContextSensitiveOnTheFly(f, cfg) },
		samePointsTo},
	{"algo6_type", polySrc, false,
		func(f *extract.Facts, cfg Config) (*Result, error) { return RunTypeAnalysis(f, nil, cfg) },
		sameRelation("vTC")},
	{"algo7_threads", threadSrc, false,
		func(f *extract.Facts, cfg Config) (*Result, error) { return RunThreadEscape(f, nil, cfg) },
		sameEscape},
	{"algo8_heapcs", polySrc, true,
		func(f *extract.Facts, cfg Config) (*Result, error) { return RunHeapCloned(f, nil, cfg) },
		samePointsTo},
	{"type_ci", polySrc, false, RunTypeAnalysisCI, sameRelation("vTA")},
}

func samePointsTo(t *testing.T, got, want *Result) {
	t.Helper()
	samePairs(t, got.PointsToPairs(), want.PointsToPairs(), "points-to pairs")
}

func sameRelation(name string) func(t *testing.T, got, want *Result) {
	return func(t *testing.T, got, want *Result) {
		t.Helper()
		g := got.Solver.Relation(name).Tuples()
		w := want.Solver.Relation(name).Tuples()
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("%s differs: %d tuples vs %d", name, len(g), len(w))
		}
	}
}

func sameEscape(t *testing.T, got, want *Result) {
	t.Helper()
	if g, w := EscapeResults(got), EscapeResults(want); g != w {
		t.Fatalf("escape metrics differ: %+v vs %+v", g, w)
	}
}

// TestFaultMatrix drives every entry point through every fault point
// crossed with every failure mode and asserts the tentpole guarantees:
// no panic escapes an entry point, the error is the right typed class
// (or, for the context-sensitive entry points hit by budget/cancel, the
// run degrades to a usable context-insensitive result), and no
// goroutines leak.
func TestFaultMatrix(t *testing.T) {
	faults := []string{
		resilience.FaultBDDGrow,
		resilience.FaultStratumStart,
	}
	modes := []string{"cancel", "budget", "panic"}
	before := runtime.NumGoroutine()
	// The grow fault needs solves large enough to outgrow the minimum
	// node table; jetty is the smallest benchmark with threads (so
	// Algorithm 7 is meaningful too).
	grow := synthFacts(t, "jetty")
	for _, fault := range faults {
		for _, mode := range modes {
			for _, ep := range entryPoints {
				t.Run(fault+"/"+mode+"/"+ep.name, func(t *testing.T) {
					f := facts(t, ep.src)
					if fault == resilience.FaultBDDGrow {
						f = grow
					}
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					// NodeSize 1 is clamped to the manager minimum, so
					// the table must grow early and bdd.grow fires.
					cfg := Config{NodeSize: 1, Context: ctx}
					fired := false
					restore := resilience.SetFaultHook(func(name string) {
						if name != fault {
							return
						}
						first := !fired
						fired = true // before the abort/panic below
						switch mode {
						case "cancel":
							// Cancel once at the first occurrence; the
							// next controller check observes it.
							if first {
								cancel()
							}
						case "budget":
							resilience.Abort(&resilience.BudgetError{Resource: "nodes", Limit: 1, Used: 2})
						case "panic":
							panic("injected fault at " + name)
						}
					})
					defer restore()
					res, err := ep.run(f, cfg)
					if !fired {
						t.Fatalf("fault point %s never fired", fault)
					}
					switch mode {
					case "panic":
						if !errors.Is(err, resilience.ErrInternal) {
							t.Fatalf("want ErrInternal, got %v", err)
						}
						var ie *resilience.InternalError
						if !errors.As(err, &ie) || len(ie.Stack) == 0 {
							t.Fatalf("internal error lost its stack: %v", err)
						}
					case "budget":
						checkFailureOrDegraded(t, res, err, resilience.ErrBudgetExceeded)
					case "cancel":
						checkFailureOrDegraded(t, res, err, resilience.ErrCanceled)
					}
				})
			}
		}
	}
	// Nothing above spawns goroutines; give the runtime a moment to
	// retire test-internal ones before comparing.
	for i := 0; i < 50 && runtime.NumGoroutine() > before; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutine leak: %d before matrix, %d after", before, after)
	}
}

// checkFailureOrDegraded accepts the two sound outcomes of a
// budget/cancel fault: a typed error, or (for the context-sensitive
// entry points) a successful degraded result carrying the typed cause.
func checkFailureOrDegraded(t *testing.T, res *Result, err error, want error) {
	t.Helper()
	if err != nil {
		if !errors.Is(err, want) {
			t.Fatalf("want %v, got %v", want, err)
		}
		return
	}
	if !res.Degraded {
		t.Fatalf("fault produced neither an error nor a degraded result")
	}
	if !errors.Is(res.DegradedCause, want) {
		t.Fatalf("degraded cause: want %v, got %v", want, res.DegradedCause)
	}
	if len(res.PointsToPairs()) == 0 {
		t.Fatal("degraded result is unusable: no points-to pairs")
	}
}

// armOnNumbering is a tracer that arms a fault once the cloned phase of
// a context-sensitive run starts (Algorithm 4 numbering), so the fault
// skips call-graph discovery. It also tracks how many spans are open.
type armOnNumbering struct {
	armed bool
	open  int
}

func (a *armOnNumbering) Begin(name string, _ ...obs.Arg) {
	a.open++
	if name == "analysis.numbering" {
		a.armed = true
	}
}
func (a *armOnNumbering) End(...obs.Arg)                     { a.open-- }
func (a *armOnNumbering) Instant(string, ...obs.Arg)         {}
func (a *armOnNumbering) Counter(string, map[string]float64) {}

// TestDegradedResultKeepsDomainSlack trips the budget of every
// degrading entry point after discovery, once in the cloned solve
// (stratum.start) and once while its table first grows (bdd.grow,
// before the solve starts), and requires a degraded result sized like
// the primary solve: with Config.DomainSlack spare names, so a live
// update can still add a variable. The aborted phase's span must be
// closed, so the fallback is not traced inside it.
func TestDegradedResultKeepsDomainSlack(t *testing.T) {
	const slack = 64
	f := synthFacts(t, "jetty")
	for _, fault := range []string{resilience.FaultStratumStart, resilience.FaultBDDGrow} {
		for _, ep := range entryPoints {
			if !ep.degrades {
				continue
			}
			t.Run(fault+"/"+ep.name, func(t *testing.T) {
				tr := &armOnNumbering{}
				fired := false
				restore := resilience.SetFaultHook(func(name string) {
					if tr.armed && name == fault {
						tr.armed = false // one shot: the fallback must finish
						fired = true
						resilience.Abort(&resilience.BudgetError{Resource: "nodes", Limit: 1, Used: 2})
					}
				})
				defer restore()
				// NodeSize 1 is clamped to the manager minimum, so the
				// cloned solve's table grows before its first stratum.
				res, err := ep.run(f, Config{DomainSlack: slack, Tracer: tr, NodeSize: 1})
				if !fired {
					t.Fatalf("fault point %s never fired after discovery", fault)
				}
				if err != nil {
					t.Fatal(err)
				}
				if tr.open != 0 {
					t.Fatalf("%d spans left open", tr.open)
				}
				if !res.Degraded || !errors.Is(res.DegradedCause, resilience.ErrBudgetExceeded) {
					t.Fatalf("want a degraded result after a budget trip, got Degraded=%v cause=%v", res.Degraded, res.DegradedCause)
				}
				if got, want := res.Solver.Universe().Domain("V").Size, uint64(len(f.Vars)+slack); got != want {
					t.Fatalf("degraded V domain has %d elements, want %d", got, want)
				}
				ls, err := Live(res)
				if err != nil {
					t.Fatal(err)
				}
				wd := datalog.WireDelta{Add: map[string][]datalog.WireTuple{
					"vP0": {{{Name: "degraded.new.var", Named: true}, {Name: f.Heaps[0], Named: true}}},
				}}
				if _, err := ls.Begin(resilience.NewController(context.Background(), resilience.Budget{}), wd); err != nil {
					t.Fatalf("live update naming a new variable: %v", err)
				}
				ls.Commit()
			})
		}
	}
}

// TestDegradeKeepsQueryFragmentCause trips the budget of the cloned
// solve of a context-sensitive run that carries a query fragment. A
// context-insensitive fallback cannot hold the fragment's relations
// (ModRefQuerySrc reads vPC), so the run must fail with the budget
// error instead of returning a degraded solver without "mod".
func TestDegradeKeepsQueryFragmentCause(t *testing.T) {
	f := synthFacts(t, "jetty")
	tr := &armOnNumbering{}
	fired := false
	restore := resilience.SetFaultHook(func(name string) {
		if tr.armed && name == resilience.FaultStratumStart {
			tr.armed = false
			fired = true
			resilience.Abort(&resilience.BudgetError{Resource: "nodes", Limit: 1, Used: 2})
		}
	})
	defer restore()
	res, err := RunContextSensitive(f, nil, Config{ExtraSrc: ModRefQuerySrc, Tracer: tr})
	if !fired {
		t.Fatal("stratum.start never fired after numbering")
	}
	if err == nil {
		t.Fatalf("want the budget error, got a result (Degraded=%v, has mod=%v)", res.Degraded, res.Solver.HasRelation("mod"))
	}
	if !errors.Is(err, resilience.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want the budget cause", err)
	}
}
