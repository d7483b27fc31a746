package datalog

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestSolveUnderGCPressure forces the solver through many garbage
// collections (tiny table and caches) and checks the result is
// identical to an unpressured run — the ref-counting discipline must
// protect every live relation across collections.
func TestSolveUnderGCPressure(t *testing.T) {
	src := `
.domain N 256
.relation e (a : N, b : N) input
.relation tc (a : N, b : N) output
tc(a, b) :- e(a, b).
tc(a, c) :- tc(a, b), e(b, c).
`
	prog := MustParse(src)
	rng := rand.New(rand.NewSource(44))
	var edges [][2]uint64
	for i := 0; i < 120; i++ {
		edges = append(edges, [2]uint64{uint64(rng.Intn(64)), uint64(rng.Intn(64))})
	}
	run := func(opts Options) ([][]uint64, SolverStats) {
		s, err := NewSolver(prog, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range edges {
			s.Relation("e").AddTuple(e[0], e[1])
		}
		if err := s.Solve(); err != nil {
			t.Fatal(err)
		}
		return sortedTuples(s.Relation("tc").Tuples()), s.Stats()
	}
	calm, _ := run(Options{})
	pressured, st := run(Options{NodeSize: 1 << 10, CacheSize: 1 << 8})
	if st.GCs == 0 {
		t.Fatal("pressure run performed no GCs; test is vacuous")
	}
	if !reflect.DeepEqual(calm, pressured) {
		t.Fatalf("GC pressure changed the result: %d vs %d tuples", len(calm), len(pressured))
	}
}

// TestDeepRecursionManyIterations drives a 400-step chain through the
// semi-naive loop; iteration count must track the chain depth.
func TestDeepRecursionManyIterations(t *testing.T) {
	src := `
.domain N 512
.relation e (a : N, b : N) input
.relation reach (a : N) output
reach(0).
reach(b) :- reach(a), e(a, b).
`
	prog := MustParse(src)
	s, err := NewSolver(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for v := uint64(0); v < 400; v++ {
		s.Relation("e").AddTuple(v, v+1)
	}
	if err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Relation("reach").Tuples()); got != 401 {
		t.Fatalf("reach has %d tuples, want 401", got)
	}
	if s.Stats().Iterations < 400 {
		t.Fatalf("expected ~400 iterations, got %d", s.Stats().Iterations)
	}
}

// TestWideFactRelation checks fact seeding and evaluation across a
// 5-attribute relation with mixed constants.
func TestWideFactRelation(t *testing.T) {
	src := `
.domain A 8
.domain B 8
.domain C 8
.relation w (a : A, b : B, c : C, d : A, e : B) input
.relation q (a : A, e : B) output
w(1, 2, 3, 4, 5).
w(1, 2, 3, 4, 6).
w(2, 2, 3, 4, 7).
q(a, e) :- w(a, 2, 3, _, e).
`
	s, err := NewSolver(MustParse(src), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	got := sortedTuples(s.Relation("q").Tuples())
	want := [][]uint64{{1, 5}, {1, 6}, {2, 7}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("q = %v", got)
	}
}

// TestManyStrataChain builds a 12-stratum negation tower and checks the
// alternating complement pattern evaluates in dependency order.
func TestManyStrataChain(t *testing.T) {
	src := `
.domain N 16
.relation p0 (x : N) input
.relation p1 (x : N) output
.relation p2 (x : N) output
.relation p3 (x : N) output
.relation p4 (x : N) output
p1(x) :- !p0(x).
p2(x) :- !p1(x).
p3(x) :- !p2(x).
p4(x) :- !p3(x).
`
	s, err := NewSolver(MustParse(src), Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.Relation("p0").AddTuple(3)
	s.Relation("p0").AddTuple(7)
	if err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	// p2 == p0, p4 == p2; p1 and p3 are the complements.
	if got := len(s.Relation("p1").Tuples()); got != 14 {
		t.Fatalf("p1 size %d", got)
	}
	p2 := sortedTuples(s.Relation("p2").Tuples())
	if !reflect.DeepEqual(p2, [][]uint64{{3}, {7}}) {
		t.Fatalf("p2 = %v", p2)
	}
	p4 := sortedTuples(s.Relation("p4").Tuples())
	if !reflect.DeepEqual(p4, p2) {
		t.Fatalf("p4 = %v", p4)
	}
}

// TestNaiveSolverAgreesUnderMutualRecursionWithNegationBelow checks a
// program combining mutual recursion with a negated lower stratum.
func TestMutualRecursionWithNegationBelow(t *testing.T) {
	src := `
.domain N 32
.relation e (a : N, b : N) input
.relation blocked (a : N) input
.relation odd (a : N, b : N) output
.relation even (a : N, b : N) output

odd(a, b) :- e(a, b), !blocked(b).
even(a, c) :- odd(a, b), e(b, c), !blocked(c).
odd(a, c) :- even(a, b), e(b, c), !blocked(c).
`
	inputs := map[string][][]uint64{
		"e":       {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}},
		"blocked": {{3}},
	}
	solveBoth(t, src, Options{}, inputs)
}
