package datalog

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func sortedTuples(ts [][]uint64) [][]uint64 {
	out := append([][]uint64(nil), ts...)
	sort.Slice(out, func(i, j int) bool { return fmt.Sprint(out[i]) < fmt.Sprint(out[j]) })
	return out
}

// requireSameAsNaive fails the test unless every relation s declares
// holds exactly the tuples the solved NaiveSolver ns holds.
func requireSameAsNaive(t *testing.T, s *Solver, ns *NaiveSolver) {
	t.Helper()
	for _, name := range s.RelationNames() {
		got := sortedTuples(s.Relation(name).Tuples())
		want := sortedTuples(ns.Tuples(name))
		if len(got) != len(want) || len(got) > 0 && !reflect.DeepEqual(got, want) {
			t.Errorf("relation %s: BDD solver %v, oracle %v", name, got, want)
		}
	}
}

// solveBoth runs the program through the BDD solver and the explicit
// tuple-set oracle with identical inputs, checks that every relation
// matches, and returns the BDD solver for further inspection.
func solveBoth(t *testing.T, src string, opts Options, inputs map[string][][]uint64) *Solver {
	t.Helper()
	prog := MustParse(src)

	s, err := NewSolver(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	ns, err := NewNaiveSolver(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	for name, rows := range inputs {
		for _, row := range rows {
			s.Relation(name).AddTuple(row...)
			ns.AddTuple(name, row...)
		}
	}
	if err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	if err := ns.Solve(); err != nil {
		t.Fatal(err)
	}
	requireSameAsNaive(t, s, ns)
	return s
}

const tcSrc = `
.domain N 32
.relation e (a : N, b : N) input
.relation tc (a : N, b : N) output

tc(a, b) :- e(a, b).
tc(a, c) :- tc(a, b), e(b, c).
`

func TestTransitiveClosureLine(t *testing.T) {
	inputs := map[string][][]uint64{"e": {{0, 1}, {1, 2}, {2, 3}}}
	s := solveBoth(t, tcSrc, Options{}, inputs)
	got := s.Relation("tc").Tuples()
	if len(got) != 6 {
		t.Fatalf("tc has %d tuples, want 6: %v", len(got), got)
	}
}

func TestTransitiveClosureCycle(t *testing.T) {
	inputs := map[string][][]uint64{"e": {{0, 1}, {1, 2}, {2, 0}}}
	s := solveBoth(t, tcSrc, Options{}, inputs)
	if n := len(s.Relation("tc").Tuples()); n != 9 {
		t.Fatalf("cycle closure has %d tuples, want 9", n)
	}
}

func TestTransitiveClosureRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 10; trial++ {
		var edges [][]uint64
		n := 6 + rng.Intn(6)
		for i := 0; i < n*2; i++ {
			edges = append(edges, []uint64{uint64(rng.Intn(n)), uint64(rng.Intn(n))})
		}
		solveBoth(t, tcSrc, Options{}, map[string][][]uint64{"e": edges})
	}
}

func TestPointsToAlgorithm1(t *testing.T) {
	// The paper's Algorithm 1, scaled down. Program:
	//   v0 = new A;      (h0)
	//   v1 = v0;
	//   v1.f = v0;
	//   v2 = v1.f;
	src := `
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
	inputs := map[string][][]uint64{
		"vP0":    {{0, 0}},
		"assign": {{1, 0}},
		"store":  {{1, 0, 0}},
		"load":   {{1, 0, 2}},
	}
	s := solveBoth(t, src, Options{}, inputs)
	want := [][]uint64{{0, 0}, {1, 0}, {2, 0}}
	got := sortedTuples(s.Relation("vP").Tuples())
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("vP = %v, want %v", got, want)
	}
	hp := s.Relation("hP").Tuples()
	if !reflect.DeepEqual(hp, [][]uint64{{0, 0, 0}}) {
		t.Fatalf("hP = %v", hp)
	}
}

func TestNegationTypeRefinementPattern(t *testing.T) {
	// The Section 5.3 shape: supertypes via double negation.
	src := `
.domain V 8
.domain T 8

.relation varExactTypes (v : V, t : T) input
.relation aT (sup : T, sub : T) input
.relation notVarType (v : V, t : T)
.relation varSuperTypes (v : V, t : T) output

notVarType(v, t) :- varExactTypes(v, tv), !aT(t, tv).
varSuperTypes(v, t) :- !notVarType(v, t).
`
	// Type lattice: 0 <: 1 <: 2 (aT(sup,sub): sub assignable to sup).
	inputs := map[string][][]uint64{
		"aT": {{0, 0}, {1, 1}, {2, 2}, {1, 0}, {2, 0}, {2, 1}},
		// v0 has exact types {0}; v1 has exact types {0,1}.
		"varExactTypes": {{0, 0}, {1, 0}, {1, 1}},
	}
	s := solveBoth(t, src, Options{}, inputs)
	got := sortedTuples(s.Relation("varSuperTypes").Tuples())
	// v0 can be declared 0,1,2; v1 needs a supertype of both 0 and 1:
	// 1 or 2. Variables 2..7 have no exact types, so every type works.
	want := [][]uint64{{0, 0}, {0, 1}, {0, 2}, {1, 1}, {1, 2}}
	for v := uint64(2); v < 8; v++ {
		for ty := uint64(0); ty < 8; ty++ {
			want = append(want, []uint64{v, ty})
		}
	}
	if !reflect.DeepEqual(got, sortedTuples(want)) {
		t.Fatalf("varSuperTypes = %v", got)
	}
}

func TestConstantsAndWildcards(t *testing.T) {
	src := `
.domain I 8
.domain Z 4
.domain V 8

.relation actual (invoke : I, param : Z, var : V) input
.relation receivers (invoke : I, var : V) output
.relation anyParam (invoke : I) output

receivers(i, v) :- actual(i, 0, v).
anyParam(i) :- actual(i, _, _).
`
	inputs := map[string][][]uint64{
		"actual": {{1, 0, 3}, {1, 1, 4}, {2, 1, 5}},
	}
	s := solveBoth(t, src, Options{}, inputs)
	if got := s.Relation("receivers").Tuples(); !reflect.DeepEqual(got, [][]uint64{{1, 3}}) {
		t.Fatalf("receivers = %v", got)
	}
	got := sortedTuples(s.Relation("anyParam").Tuples())
	if !reflect.DeepEqual(got, [][]uint64{{1}, {2}}) {
		t.Fatalf("anyParam = %v", got)
	}
}

func TestNamedConstants(t *testing.T) {
	src := `
.domain H 8 heap.map
.domain F 4
.relation hP (base : H, field : F, target : H) input
.relation who (h : H, f : F) output

who(h, f) :- hP(h, f, "a.java:57").
`
	opts := Options{ElemNames: map[string][]string{
		"H": {"global", "a.java:12", "a.java:57", "b.java:3"},
	}}
	inputs := map[string][][]uint64{
		"hP": {{1, 0, 2}, {3, 1, 2}, {1, 2, 3}},
	}
	s := solveBoth(t, src, opts, inputs)
	got := sortedTuples(s.Relation("who").Tuples())
	if !reflect.DeepEqual(got, [][]uint64{{1, 0}, {3, 1}}) {
		t.Fatalf("who = %v", got)
	}
}

func TestNamedConstantUnknownErrors(t *testing.T) {
	src := `
.domain H 8 heap.map
.relation p (h : H) input
.relation q (h : H) output
q(h) :- p(h), p("nosuch").
`
	prog := MustParse(src)
	_, err := NewSolver(prog, Options{ElemNames: map[string][]string{"H": {"a"}}})
	if err == nil {
		t.Fatal("unknown named constant accepted")
	}
}

func TestFactsSeedRelations(t *testing.T) {
	src := `
.domain V 8
.relation seed (v : V)
.relation out (v : V) output
seed(3).
seed(4).
out(v) :- seed(v).
`
	s := solveBoth(t, src, Options{}, nil)
	got := sortedTuples(s.Relation("out").Tuples())
	if !reflect.DeepEqual(got, [][]uint64{{3}, {4}}) {
		t.Fatalf("out = %v", got)
	}
}

func TestDuplicateVarInBodyAtom(t *testing.T) {
	src := `
.domain V 8
.relation e (a : V, b : V) input
.relation selfloop (a : V) output
selfloop(x) :- e(x, x).
`
	inputs := map[string][][]uint64{"e": {{1, 1}, {1, 2}, {3, 3}}}
	s := solveBoth(t, src, Options{}, inputs)
	got := sortedTuples(s.Relation("selfloop").Tuples())
	if !reflect.DeepEqual(got, [][]uint64{{1}, {3}}) {
		t.Fatalf("selfloop = %v", got)
	}
}

func TestDuplicateVarInHead(t *testing.T) {
	src := `
.domain V 8
.relation p (v : V) input
.relation diag (a : V, b : V) output
diag(x, x) :- p(x).
`
	inputs := map[string][][]uint64{"p": {{2}, {5}}}
	s := solveBoth(t, src, Options{}, inputs)
	got := sortedTuples(s.Relation("diag").Tuples())
	if !reflect.DeepEqual(got, [][]uint64{{2, 2}, {5, 5}}) {
		t.Fatalf("diag = %v", got)
	}
}

func TestConstantInHead(t *testing.T) {
	src := `
.domain V 8
.domain Z 4
.relation p (v : V) input
.relation q (v : V, z : Z) output
q(x, 2) :- p(x).
`
	inputs := map[string][][]uint64{"p": {{1}}}
	s := solveBoth(t, src, Options{}, inputs)
	if got := s.Relation("q").Tuples(); !reflect.DeepEqual(got, [][]uint64{{1, 2}}) {
		t.Fatalf("q = %v", got)
	}
}

func TestUnboundHeadVariable(t *testing.T) {
	// p(x, y) :- q(x): y is bound by no body literal. The checker
	// rejects this (DL020) everywhere — at parse and at both solver
	// entry points — instead of silently expanding y to its whole
	// domain.
	src := `
.domain V 4
.domain W 3
.relation q (v : V) input
.relation p (v : V, w : W) output
p(x, y) :- q(x).
`
	if _, err := Parse(src); err == nil || !strings.Contains(err.Error(), "DL020") {
		t.Fatalf("Parse error = %v, want DL020", err)
	}
	prog, diags, err := ParseAndCheck("", src)
	if err != nil {
		t.Fatal(err)
	}
	if !diags.HasErrors() {
		t.Fatalf("checker accepted unbound head variable: %v", diags)
	}
	if _, err := NewSolver(prog, Options{}); err == nil || !strings.Contains(err.Error(), "DL020") {
		t.Fatalf("NewSolver error = %v, want DL020", err)
	}
	if _, err := NewNaiveSolver(prog, Options{}); err == nil || !strings.Contains(err.Error(), "DL020") {
		t.Fatalf("NewNaiveSolver error = %v, want DL020", err)
	}
}

func TestSingleNegatedLiteralRule(t *testing.T) {
	src := `
.domain V 5
.relation p (v : V) input
.relation np (v : V) output
np(x) :- !p(x).
`
	inputs := map[string][][]uint64{"p": {{0}, {3}}}
	s := solveBoth(t, src, Options{}, inputs)
	got := sortedTuples(s.Relation("np").Tuples())
	if !reflect.DeepEqual(got, [][]uint64{{1}, {2}, {4}}) {
		t.Fatalf("np = %v", got)
	}
}

func TestNegatedLiteralWithConstant(t *testing.T) {
	src := `
.domain V 5
.domain W 4
.relation p (v : V, w : W) input
.relation q (v : V) input
.relation r (v : V) output
r(x) :- q(x), !p(x, 1).
`
	inputs := map[string][][]uint64{
		"q": {{0}, {1}, {2}},
		"p": {{0, 1}, {1, 2}},
	}
	s := solveBoth(t, src, Options{}, inputs)
	got := sortedTuples(s.Relation("r").Tuples())
	if !reflect.DeepEqual(got, [][]uint64{{1}, {2}}) {
		t.Fatalf("r = %v", got)
	}
}

func TestMutualRecursion(t *testing.T) {
	src := `
.domain N 16
.relation e (a : N, b : N) input
.relation odd (a : N, b : N) output
.relation even (a : N, b : N) output

odd(a, b) :- e(a, b).
even(a, c) :- odd(a, b), e(b, c).
odd(a, c) :- even(a, b), e(b, c).
`
	inputs := map[string][][]uint64{"e": {{0, 1}, {1, 2}, {2, 3}, {3, 4}}}
	s := solveBoth(t, src, Options{}, inputs)
	odd := sortedTuples(s.Relation("odd").Tuples())
	want := [][]uint64{{0, 1}, {0, 3}, {1, 2}, {1, 4}, {2, 3}, {3, 4}}
	if !reflect.DeepEqual(odd, want) {
		t.Fatalf("odd = %v", odd)
	}
}

func TestSameVariableAcrossManyLiterals(t *testing.T) {
	// Exercises the paper's rule (3) shape with a three-way join.
	src := `
.domain V 8
.domain F 4
.domain H 8
.relation store (base : V, field : F, source : V) input
.relation vP (v : V, h : H) input
.relation hP (base : H, field : F, target : H) output
hP(h1, f, h2) :- store(v1, f, v2), vP(v1, h1), vP(v2, h2).
`
	inputs := map[string][][]uint64{
		"store": {{1, 0, 2}, {3, 1, 3}},
		"vP":    {{1, 4}, {2, 5}, {2, 6}, {3, 7}},
	}
	s := solveBoth(t, src, Options{}, inputs)
	got := sortedTuples(s.Relation("hP").Tuples())
	want := [][]uint64{{4, 0, 5}, {4, 0, 6}, {7, 1, 7}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("hP = %v", got)
	}
}

func TestNoIncrementalizationMatches(t *testing.T) {
	inputs := map[string][][]uint64{"e": {{0, 1}, {1, 2}, {2, 3}, {3, 1}, {0, 4}}}
	prog := MustParse(tcSrc)
	inc, err := NewSolver(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	noinc, err := NewSolver(prog, Options{NoIncrementalization: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range inputs["e"] {
		inc.Relation("e").AddTuple(row...)
		noinc.Relation("e").AddTuple(row...)
	}
	if err := inc.Solve(); err != nil {
		t.Fatal(err)
	}
	if err := noinc.Solve(); err != nil {
		t.Fatal(err)
	}
	a := sortedTuples(inc.Relation("tc").Tuples())
	b := sortedTuples(noinc.Relation("tc").Tuples())
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("incrementalized %v vs full %v", a, b)
	}
	if inc.Stats().RuleApplications >= noinc.Stats().RuleApplications {
		t.Logf("note: semi-naive used %d rule apps, full %d",
			inc.Stats().RuleApplications, noinc.Stats().RuleApplications)
	}
}

func TestSolveTwiceErrors(t *testing.T) {
	s, err := NewSolver(MustParse(tcSrc), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	if err := s.Solve(); err == nil {
		t.Fatal("second Solve accepted")
	}
}

func TestSolverStatsPopulated(t *testing.T) {
	s, err := NewSolver(MustParse(tcSrc), Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := s.Relation("e")
	for i := uint64(0); i < 20; i++ {
		e.AddTuple(i, (i+1)%25)
	}
	if err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.RuleApplications == 0 || st.Iterations == 0 || st.PeakLiveNodes == 0 {
		t.Fatalf("stats not populated: %+v", st)
	}
}

func TestCustomDomainOrderStillCorrect(t *testing.T) {
	inputs := map[string][][]uint64{"e": {{0, 1}, {1, 2}, {2, 3}}}
	solveBoth(t, tcSrc, Options{Order: []string{"N"}}, inputs)
}

func TestDomainSizeOverride(t *testing.T) {
	src := `
.domain C 4
.relation p (c : C) input
.relation q (c : C) output
q(c) :- p(c).
`
	s, err := NewSolver(MustParse(src), Options{DomainSizes: map[string]uint64{"C": 1 << 20}})
	if err != nil {
		t.Fatal(err)
	}
	s.Relation("p").AddTuple(1 << 19)
	if err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	got := s.Relation("q").Tuples()
	if len(got) != 1 || got[0][0] != 1<<19 {
		t.Fatalf("q = %v", got)
	}
}

// TestDifferentialRandomPointsTo feeds randomized points-to instances
// through both evaluators — the workhorse consistency check.
func TestDifferentialRandomPointsTo(t *testing.T) {
	src := `
.domain V 12
.domain H 6
.domain F 3

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
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 8; trial++ {
		inputs := map[string][][]uint64{}
		for i := 0; i < 6; i++ {
			inputs["vP0"] = append(inputs["vP0"], []uint64{uint64(rng.Intn(12)), uint64(rng.Intn(6))})
			inputs["assign"] = append(inputs["assign"], []uint64{uint64(rng.Intn(12)), uint64(rng.Intn(12))})
			inputs["store"] = append(inputs["store"], []uint64{uint64(rng.Intn(12)), uint64(rng.Intn(3)), uint64(rng.Intn(12))})
			inputs["load"] = append(inputs["load"], []uint64{uint64(rng.Intn(12)), uint64(rng.Intn(3)), uint64(rng.Intn(12))})
		}
		solveBoth(t, src, Options{}, inputs)
	}
}
