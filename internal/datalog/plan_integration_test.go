package datalog

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// ptSrc is the paper's Algorithm 1 scaled down — multi-literal joins
// over several domains, the richest plan shapes in the test corpus.
const ptSrc = `
.domain V 16
.domain H 8
.domain F 4

.relation vP0 (variable : V, heap : H) input
.relation store (base : V, field : F, source : V) input
.relation load (base : V, field : F, dest : V) input
.relation assign (dest : V, source : V) input
.relation vP (variable : V, heap : H) output
.relation hP (base : H, field : F, target : H) output

vP(v, h) :- vP0(v, h).
vP(v1, h) :- assign(v1, v2), vP(v2, h).
hP(h1, f, h2) :- store(v1, f, v2), vP(v1, h1), vP(v2, h2).
vP(v2, h2) :- load(v1, f, v2), vP(v1, h1), hP(h1, f, h2).
`

var ptInputs = map[string][][]uint64{
	"vP0":    {{0, 0}, {3, 1}},
	"assign": {{1, 0}, {2, 1}, {4, 2}},
	"store":  {{1, 0, 3}, {2, 1, 1}},
	"load":   {{1, 0, 5}, {4, 1, 6}},
}

// negSrc exercises stratified negation (Complement plans).
const negSrc = `
.domain N 16
.relation node (a : N) input
.relation e (a : N, b : N) input
.relation tc (a : N, b : N) output
.relation ntc (a : N, b : N) output

tc(a, b) :- e(a, b).
tc(a, c) :- tc(a, b), e(b, c).
ntc(a, b) :- node(a), node(b), !tc(a, b).
`

var negInputs = map[string][][]uint64{
	"node": {{0}, {1}, {2}, {3}},
	"e":    {{0, 1}, {1, 2}},
}

// featSrc exercises the remaining op kinds: in-atom constants
// (SelectConst), repeated variables (EquateAttrs), wildcards,
// duplicated head variables (DupHead), and constant heads (ConstHead).
const featSrc = `
.domain V 8
.domain H 4
.relation r (a : V, b : V, c : H) input
.relation s (x : V, y : V) input
.relation dup (x : V, y : V, z : V) output
.relation sel (x : V, h : H) output

dup(x, x, y) :- s(x, y).
sel(x, 2) :- r(x, x, _).
sel(x, h) :- r(x, _, h), s(x, 1).
`

var featInputs = map[string][][]uint64{
	"r": {{0, 0, 1}, {0, 2, 3}, {5, 5, 0}, {6, 1, 2}},
	"s": {{0, 1}, {6, 1}, {3, 4}},
}

// solveInputs solves src over inputs with default options.
func solveInputs(t *testing.T, src string, inputs map[string][][]uint64) *Solver {
	t.Helper()
	s, err := NewSolver(MustParse(src), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for name, rows := range inputs {
		s.Relation(name).AddTuples(rows)
	}
	if err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestPlanConfigDifferential holds the optimizer's plans, the one plan
// configuration the solver runs, to NaiveSolver on every declared
// relation. Unlike solveBoth, the oracle is fed by NaiveReplay: it
// re-solves the BDD solve's own input, captured just before the first
// stratum, as the analysis-level differentials do.
func TestPlanConfigDifferential(t *testing.T) {
	programs := []struct {
		name   string
		src    string
		inputs map[string][][]uint64
	}{
		{"tc", tcSrc, map[string][][]uint64{"e": {{0, 1}, {1, 2}, {2, 3}, {3, 1}}}},
		{"pointsto", ptSrc, ptInputs},
		{"negation", negSrc, negInputs},
		{"features", featSrc, featInputs},
	}
	for _, pr := range programs {
		t.Run(pr.name, func(t *testing.T) {
			var ns *NaiveSolver
			s, err := NewSolver(MustParse(pr.src), Options{PreSolve: func(s *Solver) (err error) {
				ns, err = NaiveReplay(s)
				return err
			}})
			if err != nil {
				t.Fatal(err)
			}
			for name, rows := range pr.inputs {
				s.Relation(name).AddTuples(rows)
			}
			if err := s.Solve(); err != nil {
				t.Fatal(err)
			}
			if err := ns.Solve(); err != nil {
				t.Fatal(err)
			}
			requireSameAsNaive(t, s, ns)
		})
	}
}

// TestExplainGolden pins the -explain output for the Algorithm 1
// program byte-for-byte. Regenerate after intended planner changes:
//
//	go test ./internal/datalog -run TestExplainGolden -update
func TestExplainGolden(t *testing.T) {
	s, err := NewSolver(MustParse(ptSrc), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for name, rows := range ptInputs {
		for _, row := range rows {
			s.Relation(name).AddTuple(row...)
		}
	}
	var buf bytes.Buffer
	s.Explain(&buf)
	got := buf.Bytes()
	golden := filepath.Join("testdata", "explain_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("explain output differs from %s (rerun with -update after intended changes)\ngot:\n%s", golden, got)
	}
}

// TestExplainDeterministic guards the map-heavy formatting paths.
func TestExplainDeterministic(t *testing.T) {
	render := func() string {
		s, err := NewSolver(MustParse(featSrc), Options{})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		s.Explain(&buf)
		return buf.String()
	}
	first := render()
	for i := 0; i < 5; i++ {
		if render() != first {
			t.Fatal("Explain output is not deterministic")
		}
	}
}

// TestExplainDeterministicHeapClone renders the canonical heap-cloned
// program (the Algorithm 8 shape with an HC domain and the C+HC
// interleaved order group) repeatedly: plans over grouped orders must
// format identically run to run, or CI's precision determinism gate
// would flake.
func TestExplainDeterministicHeapClone(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", "check", "heapclone.datalog"))
	if err != nil {
		t.Fatal(err)
	}
	render := func() string {
		s, err := NewSolver(MustParse(string(src)), Options{})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		s.Explain(&buf)
		return buf.String()
	}
	first := render()
	if !bytes.Contains([]byte(first), []byte("cvP")) {
		t.Fatalf("explain output missing the heap-cloned cvP relation:\n%s", first)
	}
	for i := 0; i < 5; i++ {
		if render() != first {
			t.Fatal("Explain output is not deterministic for the heap-cloned program")
		}
	}
}

// TestOpCountersAndHoisting asserts the per-op counting path: executed
// plan ops show up under datalog.op.*, and the fixpoint loop actually
// reuses hoisted normalizations on a recursive program.
func TestOpCountersAndHoisting(t *testing.T) {
	inputs := map[string][][]uint64{"e": {{0, 1}, {1, 2}, {2, 3}, {3, 4}}}
	s := solveInputs(t, tcSrc, inputs)
	snap := s.Metrics().Snapshot()
	for _, key := range []string{"datalog.op.load", "datalog.op.join_project", "datalog.op.reshape"} {
		if snap[key] <= 0 {
			t.Errorf("%s = %v, want > 0", key, snap[key])
		}
	}
	// The e literal in the recursive rule normalizes once per stratum,
	// then hits the cache on every later iteration.
	if snap["datalog.op.norm_cache_hits"] <= 0 {
		t.Errorf("norm_cache_hits = %v, want > 0", snap["datalog.op.norm_cache_hits"])
	}
	// All counter keys exist even when the op kind never ran.
	for kind, key := range opMetricKeys {
		if _, ok := snap[key]; !ok {
			t.Errorf("metric key %s (op %s) missing from snapshot", key, kind)
		}
	}

	// Exact normalization work. Without hoisting this solve ran 7
	// reshapes (measured when hoisting could still be switched off);
	// each cache hit saves exactly one of them.
	for key, want := range map[string]float64{
		"datalog.op.reshape":           4,
		"datalog.op.norm_cache_hits":   3,
		"datalog.op.norm_cache_misses": 1,
	} {
		if snap[key] != want {
			t.Errorf("%s = %v, want %v", key, snap[key], want)
		}
	}
	if got := snap["datalog.op.reshape"] + snap["datalog.op.norm_cache_hits"]; got != 7 {
		t.Errorf("reshapes + cache hits = %v, want the unhoisted 7", got)
	}
}

// TestWastedCloneEliminated checks the borrowed-source path: a literal
// needing no normalization must not copy the stored relation. The
// observable proxy is that solving a program whose literals are all
// trivial performs zero normalization ops.
func TestWastedCloneEliminated(t *testing.T) {
	src := `
.domain N 8
.relation e (a : N, b : N) input
.relation out (a : N, b : N) output
out(a, b) :- e(a, b).
`
	s := solveInputs(t, src, map[string][][]uint64{"e": {{0, 1}, {2, 3}}})
	snap := s.Metrics().Snapshot()
	for _, key := range []string{"datalog.op.select_const", "datalog.op.equate_attrs", "datalog.op.project", "datalog.op.reshape", "datalog.op.complement"} {
		if snap[key] != 0 {
			t.Errorf("trivial literal ran %s %v times", key, snap[key])
		}
	}
	if got := s.Relation("out").Size().Int64(); got != 2 {
		t.Errorf("out has %d tuples, want 2", got)
	}
}
