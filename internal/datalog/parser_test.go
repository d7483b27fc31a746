package datalog

import (
	"strings"
	"testing"
)

func TestParseBasicProgram(t *testing.T) {
	src := `
# Berndl-style points-to skeleton.
.domain V 1024 variable.map
.domain H 256

.relation vP0 (variable : V, heap : H) input
.relation assign (dest : V, source : V) input
.relation vP (variable : V, heap : H) output

vP(v, h)  :- vP0(v, h).
vP(v1, h) :- assign(v1, v2), vP(v2, h).
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Domains) != 2 || len(prog.Relations) != 3 || len(prog.Rules) != 2 {
		t.Fatalf("parsed %d domains, %d relations, %d rules", len(prog.Domains), len(prog.Relations), len(prog.Rules))
	}
	if prog.Domains[0].MapFile != "variable.map" {
		t.Fatalf("map file = %q", prog.Domains[0].MapFile)
	}
	if prog.Relation("vP0").Kind != RelInput || prog.Relation("vP").Kind != RelOutput {
		t.Fatal("relation kinds wrong")
	}
	r := prog.Rules[1]
	if r.Head.Pred != "vP" || len(r.Body) != 2 {
		t.Fatalf("rule parsed wrong: %s", r)
	}
	if got := r.String(); got != "vP(v1,h) :- assign(v1,v2), vP(v2,h)." {
		t.Fatalf("String() = %q", got)
	}
}

func TestParseTermForms(t *testing.T) {
	src := `
.domain I 64 invoke.map
.domain Z 8
.domain V 64

.relation actual (invoke : I, param : Z, var : V) input
.relation firstArg (invoke : I, var : V) output

firstArg(i, v) :- actual(i, 0, v).
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	args := prog.Rules[0].Body[0].Atom.Args
	if args[1].Kind != TermConst || args[1].Val != 0 {
		t.Fatalf("constant arg parsed as %+v", args[1])
	}
}

func TestParseWildcardAndNegation(t *testing.T) {
	src := `
.domain V 16
.domain T 16
.relation varExactTypes (v : V, t : T) input
.relation aT (sup : T, sub : T) input
.relation notVarType (v : V, t : T)
.relation varSuperTypes (v : V, t : T) output

notVarType(v, t) :- varExactTypes(v, tv), !aT(t, tv).
varSuperTypes(v, t) :- !notVarType(v, t).
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if !prog.Rules[0].Body[1].Negated {
		t.Fatal("negation not parsed")
	}
}

func TestParseNamedConstAndDottedIdent(t *testing.T) {
	src := `
.domain H 16 heap.map
.domain F 8
.relation hP (base : H, field : F, target : H) input
.relation whoPointsTo57 (h : H, f : F) output

whoPointsTo57(h, f) :- hP(h, f, "a.java:57").
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	arg := prog.Rules[0].Body[0].Atom.Args[2]
	if arg.Kind != TermNamedConst || arg.Name != "a.java:57" {
		t.Fatalf("named const parsed as %+v", arg)
	}
}

func TestParseFact(t *testing.T) {
	src := `
.domain V 16
.relation seed (v : V) input
seed(3).
seed(5).
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Rules) != 2 || !prog.Rules[0].IsFact() {
		t.Fatal("facts not parsed")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"undeclared relation", `.domain V 4
.relation p (v : V) output
p(x) :- q(x).`, "undeclared relation"},
		{"arity mismatch", `.domain V 4
.relation p (v : V) output
.relation q (a : V, b : V) input
p(x) :- q(x).`, "arity"},
		{"unknown domain", `.relation p (v : V) output`, "unknown domain"},
		{"domain conflict", `.domain V 4
.domain H 4
.relation p (v : V) output
.relation q (h : H) input
p(x) :- q(x).`, "domains"},
		{"wildcard head", `.domain V 4
.relation p (v : V) output
.relation q (v : V) input
p(_) :- q(_).`, "don't-care in rule head"},
		{"nonground fact", `.domain V 4
.relation p (v : V) output
p(x).`, "ground"},
		{"wildcard in negation", `.domain V 4
.relation p (v : V) output
.relation q (a : V, b : V) input
p(x) :- q(x, x), !q(x, _).`, "negated"},
		{"duplicate domain", `.domain V 4
.domain V 8`, "twice"},
		{"duplicate relation", `.domain V 4
.relation p (v : V) input
.relation p (v : V) input`, "twice"},
		{"zero domain", `.domain V 0`, "zero size"},
		{"bad directive", `.frobnicate V 4`, "unknown directive"},
		{"unterminated string", `.domain V 4
.relation p (v : V) output
p("x) :- p(1).`, "unterminated"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(c.src)
			if err == nil {
				t.Fatalf("no error for %q", c.src)
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Fatalf("error %q does not mention %q", err, c.wantSub)
			}
		})
	}
}

func TestStratifyRejectsNegativeCycle(t *testing.T) {
	src := `
.domain V 4
.relation p (v : V) output
.relation q (v : V) output
.relation e (v : V) input

p(x) :- e(x), !q(x).
q(x) :- p(x).
`
	// Parse itself rejects the program (the checker's DL030)...
	if _, err := Parse(src); err == nil {
		t.Fatal("unstratified program accepted by Parse")
	} else if !strings.Contains(err.Error(), "not stratified") {
		t.Fatalf("unexpected Parse error %v", err)
	}
	// ...and stratify independently reports the same cycle path.
	prog, _, err := ParseAndCheck("", src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stratify(prog); err == nil {
		t.Fatal("unstratified program accepted")
	} else if !strings.Contains(err.Error(), "not stratified") {
		t.Fatalf("unexpected error %v", err)
	} else if !strings.Contains(err.Error(), "p -> !q -> p") {
		t.Fatalf("error %v does not show the predicate cycle", err)
	}
}

func TestStratifyOrdersDependencies(t *testing.T) {
	src := `
.domain V 8
.relation e (a : V, b : V) input
.relation tc (a : V, b : V)
.relation ntc (a : V, b : V) output

tc(a, b) :- e(a, b).
tc(a, c) :- tc(a, b), e(b, c).
ntc(a, b) :- !tc(a, b).
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	strata, err := stratify(prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(strata) != 2 {
		t.Fatalf("got %d strata, want 2", len(strata))
	}
	if strata[0].preds[0] != "tc" || !recursive(strata[0]) {
		t.Fatalf("first stratum %+v", strata[0])
	}
	if strata[1].preds[0] != "ntc" || recursive(strata[1]) {
		t.Fatalf("second stratum %+v", strata[1])
	}
}

// recursive reports whether a rule of st reads a predicate of st.
func recursive(st *stratum) bool {
	for _, rule := range st.rules {
		for _, lit := range rule.Body {
			if st.in[lit.Atom.Pred] {
				return true
			}
		}
	}
	return false
}

func TestStratifyMutualRecursionOneStratum(t *testing.T) {
	src := `
.domain V 8
.relation e (a : V, b : V) input
.relation even (a : V, b : V) output
.relation odd (a : V, b : V) output

odd(a, b) :- e(a, b).
even(a, c) :- odd(a, b), e(b, c).
odd(a, c) :- even(a, b), e(b, c).
`
	prog := MustParse(src)
	strata, err := stratify(prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(strata) != 1 || len(strata[0].preds) != 2 {
		t.Fatalf("strata = %+v", strata)
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse should panic on bad input")
		}
	}()
	MustParse(".domain")
}

func TestParseBDDVarOrder(t *testing.T) {
	src := `
.bddvarorder N_F_V
.domain V 8
.domain F 8
.domain N 8
.relation p (v : V) input
.relation q (v : V) output
q(v) :- p(v).
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"N", "F", "V"}
	if len(prog.Order) != 3 || prog.Order[0] != want[0] || prog.Order[1] != want[1] || prog.Order[2] != want[2] {
		t.Fatalf("Order = %v", prog.Order)
	}
	// The solver must honour it (unknown-domain orders would error).
	s, err := NewSolver(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.Relation("p").AddTuple(3)
	if err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	if len(s.Relation("q").Tuples()) != 1 {
		t.Fatal("solve under declared order failed")
	}
}

func TestParseBDDVarOrderTwiceErrors(t *testing.T) {
	src := ".bddvarorder A_B\n.bddvarorder B_A\n"
	if _, err := Parse(src); err == nil {
		t.Fatal("duplicate .bddvarorder accepted")
	}
}

func TestRuleStatsReported(t *testing.T) {
	s, err := NewSolver(MustParse(tcSrc), Options{CountRuleTuples: true})
	if err != nil {
		t.Fatal(err)
	}
	for v := uint64(0); v < 10; v++ {
		s.Relation("e").AddTuple(v, v+1)
	}
	if err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	rules := s.Stats().Rules
	if len(rules) != 2 {
		t.Fatalf("rule stats = %v", rules)
	}
	if rules[0].DeltaTuples != 10 {
		t.Fatalf("base rule derived %d tuples, want 10", rules[0].DeltaTuples)
	}
	// Closure of an 11-node chain has 55 pairs; the recursive rule
	// contributes the 45 beyond the edges.
	if rules[1].DeltaTuples != 45 {
		t.Fatalf("recursive rule derived %d tuples, want 45", rules[1].DeltaTuples)
	}
	if rules[1].Applications == 0 || rules[1].Time == 0 {
		t.Fatalf("rule stats not measured: %+v", rules[1])
	}
}
