package check_test

import (
	"strings"
	"testing"

	"bddbddb/internal/datalog"
	"bddbddb/internal/datalog/check"
)

// diagsFor parses src (tolerating checker errors) and returns the
// diagnostics. Syntax errors fail the test — these cases exercise the
// semantic pass, not the parser.
func diagsFor(t *testing.T, src string) check.Diags {
	t.Helper()
	_, diags, err := datalog.ParseAndCheck("test.datalog", src)
	if err != nil {
		t.Fatalf("syntax error: %v", err)
	}
	return diags
}

// hasCode reports whether some diagnostic carries the code and mentions
// the substring.
func hasCode(ds check.Diags, code, sub string) bool {
	for _, d := range ds {
		if d.Code == code && strings.Contains(d.Message, sub) {
			return true
		}
	}
	return false
}

func TestEveryCodeFires(t *testing.T) {
	cases := []struct {
		name, src, code, sub string
	}{
		{"DL001 unknown domain", `.relation p (v : V) output`, check.CodeDomain, "unknown domain"},
		{"DL001 duplicate domain", ".domain V 4\n.domain V 8", check.CodeDomain, "twice"},
		{"DL001 zero size", `.domain V 0`, check.CodeDomain, "zero size"},
		{"DL002 duplicate relation", ".domain V 4\n.relation p (v : V) input\n.relation p (v : V) input",
			check.CodeRelation, "twice"},
		{"DL002 repeated attribute", ".domain V 4\n.relation p (a : V, a : V) input",
			check.CodeRelation, "repeats attribute"},
		{"DL002 undeclared relation", ".domain V 4\n.relation p (v : V) output\np(x) :- q(x), p(x).",
			check.CodeRelation, "undeclared relation"},
		{"DL003 unknown order domain", ".bddvarorder V_X\n.domain V 4", check.CodeVarOrder, "unknown domain"},
		{"DL003 repeated order domain", ".bddvarorder V_V\n.domain V 4", check.CodeVarOrder, "twice"},
		{"DL010 arity", ".domain V 4\n.relation p (v : V) output\n.relation q (a : V, b : V) input\np(x) :- q(x).",
			check.CodeArity, "arity"},
		{"DL010 domain conflict", ".domain V 4\n.domain H 4\n.relation p (v : V) output\n.relation q (h : H) input\np(x) :- q(x).",
			check.CodeArity, "domains"},
		{"DL011 const range", ".domain V 4\n.relation p (v : V) output\n.relation q (v : V) input\np(x) :- q(x), q(7).",
			check.CodeConstRange, "out of range"},
		{"DL011 fact range", ".domain V 4\n.relation p (v : V) output\np(7).", check.CodeConstRange, "out of range"},
		{"DL012 wildcard head", ".domain V 4\n.relation p (v : V) output\n.relation q (v : V) input\np(_) :- q(_).",
			check.CodeTermForm, "don't-care in rule head"},
		{"DL012 nonground fact", ".domain V 4\n.relation p (v : V) output\np(x).", check.CodeTermForm, "ground"},
		{"DL012 wildcard negated", ".domain V 4\n.relation p (v : V) output\n.relation q (a : V, b : V) input\np(x) :- q(x, x), !q(x, _).",
			check.CodeTermForm, "negated"},
		{"DL020 unbound head", ".domain V 4\n.relation p (a : V, b : V) output\n.relation q (v : V) input\np(x, y) :- q(x).",
			check.CodeRuleSafety, "never bound"},
		{"DL021 negation only", ".domain V 4\n.relation p (v : V) output\n.relation q (v : V) input\np(x) :- q(x), !q(y).",
			check.CodeNegSafety, "only in negated"},
		{"DL030 negation cycle", ".domain V 4\n.relation e (v : V) input\n.relation p (v : V) output\n.relation q (v : V) output\np(x) :- e(x), !q(x).\nq(x) :- p(x).",
			check.CodeStratify, "p -> !q -> p"},
		{"DL100 unused relation", ".domain V 4\n.relation unused (v : V) input\n.relation p (v : V) input\n.relation q (v : V) output\nq(x) :- p(x).",
			check.CodeUnusedRel, "never used"},
		{"DL101 input head", ".domain V 4\n.relation p (v : V) input\n.relation q (v : V) input\np(x) :- q(x).",
			check.CodeInputHead, "also derived"},
		{"DL102 never fires", ".domain V 4\n.relation never (v : V)\n.relation q (v : V) output\nq(x) :- never(x).",
			check.CodeNeverFires, "never fire"},
		{"DL103 single use", ".domain V 4\n.relation e (a : V, b : V) input\n.relation q (v : V) output\nq(x) :- e(x, y).",
			check.CodeSingleUse, "only once"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ds := diagsFor(t, c.src)
			if !hasCode(ds, c.code, c.sub) {
				t.Fatalf("no %s diagnostic mentioning %q in:\n%s", c.code, c.sub, ds)
			}
		})
	}
}

func TestNegationBoundHeadVariableIsLegal(t *testing.T) {
	// The engine's finite-universe semantics: head variables bound only
	// through negated literals complement over the whole domain. The
	// Section 5.3 query (varSuperTypes) depends on this staying legal.
	src := `
.domain V 4
.relation p (v : V) input
.relation np (v : V) output
np(x) :- !p(x).
`
	if ds := diagsFor(t, src); len(ds) != 0 {
		t.Fatalf("legal negation-bound head flagged: %s", ds)
	}
}

func TestSeverityAndPromote(t *testing.T) {
	src := `
.domain V 4
.relation e (a : V, b : V) input
.relation q (v : V) output
q(x) :- e(x, y).
`
	ds := diagsFor(t, src)
	if ds.HasErrors() {
		t.Fatalf("warnings-only program reported errors: %s", ds)
	}
	if len(ds.Warnings()) != 1 {
		t.Fatalf("want exactly one warning, got: %s", ds)
	}
	if ds.Err() != nil {
		t.Fatal("Err() non-nil without errors")
	}
	promoted := ds.Promote()
	if !promoted.HasErrors() || promoted.Err() == nil {
		t.Fatal("Promote did not raise warnings to errors")
	}
	// The original list is untouched.
	if ds.HasErrors() {
		t.Fatal("Promote mutated the receiver")
	}
}

func TestDiagRendering(t *testing.T) {
	cases := []struct {
		d    check.Diag
		want string
	}{
		{check.Diag{Code: "DL020", Severity: check.SevError, File: "a.dl", Line: 3, Col: 7, Message: "m"},
			"a.dl:3:7: DL020: m"},
		{check.Diag{Code: "DL103", Severity: check.SevWarning, File: "a.dl", Line: 1, Col: 2, Message: "m"},
			"a.dl:1:2: DL103: warning: m"},
		{check.Diag{Code: "DL002", Severity: check.SevError, File: "a.dl", Message: "m"},
			"a.dl: DL002: m"},
		{check.Diag{Code: "DL020", Severity: check.SevError, Line: 3, Col: 7, Message: "m"},
			"3:7: DL020: m"},
		{check.Diag{Code: "DL000", Severity: check.SevError, Message: "m"},
			"DL000: m"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestDomainSizeOverrides(t *testing.T) {
	// Declared size admits the constant; the override (what the solver
	// will actually run with) does not.
	src := `
.domain V 8
.relation p (v : V) output
.relation q (v : V) input
p(x) :- q(x), q(5).
`
	prog, diags, err := datalog.ParseAndCheck("", src)
	if err != nil || diags.HasErrors() {
		t.Fatalf("unexpected: %v / %s", err, diags)
	}
	ds := check.ProgramOpts(prog, check.Options{DomainSizes: map[string]uint64{"V": 4}})
	if !hasCode(ds, check.CodeConstRange, "out of range") {
		t.Fatalf("override did not trigger DL011: %s", ds)
	}
}

func TestNegationCycleSelfLoop(t *testing.T) {
	src := `
.domain V 4
.relation p (v : V) output
p(x) :- !p(x).
`
	ds := diagsFor(t, src)
	if !hasCode(ds, check.CodeStratify, "!p -> p") {
		t.Fatalf("self-loop cycle not rendered: %s", ds)
	}
}

func TestNegationCycleLongPath(t *testing.T) {
	src := `
.domain V 4
.relation e (v : V) input
.relation p (v : V) output
.relation q (v : V) output
.relation r (v : V) output
p(x) :- e(x), !q(x).
q(x) :- r(x).
r(x) :- p(x).
`
	ds := diagsFor(t, src)
	if !hasCode(ds, check.CodeStratify, "p -> r -> !q -> p") {
		t.Fatalf("cycle path not rendered: %s", ds)
	}
}

func TestDiagsSortIsPositional(t *testing.T) {
	ds := check.Diags{
		{Code: "DL020", Line: 5, Col: 2},
		{Code: "DL001", Line: 2, Col: 9},
		{Code: "DL010", Line: 2, Col: 1},
	}
	ds.Sort()
	if ds[0].Code != "DL010" || ds[1].Code != "DL001" || ds[2].Code != "DL020" {
		t.Fatalf("sorted order wrong: %v", ds)
	}
}

// TestErrorsOnlySkipsLintWarnings: with ErrorsOnly the lint warnings
// are not computed, and errors are reported as without it.
func TestErrorsOnlySkipsLintWarnings(t *testing.T) {
	src := ".domain V 4\n.relation unused (v : V) input\n.relation p (v : V) output\np(v) :- q(v).\n"
	prog, diags, err := datalog.ParseAndCheck("test.datalog", src)
	if err != nil {
		t.Fatal(err)
	}
	if !hasCode(diags, check.CodeUnusedRel, "unused") {
		t.Fatalf("full check misses the unused-relation warning: %v", diags)
	}
	only := check.ProgramOpts(prog, check.Options{ErrorsOnly: true})
	if len(only.Warnings()) != 0 {
		t.Fatalf("ErrorsOnly reported warnings: %v", only.Warnings())
	}
	if got, want := only.String(), diags.Errors().String(); got != want || want == "" {
		t.Fatalf("ErrorsOnly errors %q, full check's %q", got, want)
	}
}
