package plan

import (
	"reflect"
	"strings"
	"testing"

	"bddbddb/internal/rel"
)

// testUniverse builds a tiny finalized universe so ops can carry real
// attributes (physical domains exist only after Finalize).
func testUniverse(t *testing.T) *rel.Universe {
	t.Helper()
	u := rel.NewUniverse()
	u.Declare("V", 8)
	u.Declare("H", 8)
	u.EnsureInstances("V", 3)
	u.EnsureInstances("H", 2)
	if err := u.Finalize(rel.FinalizeOptions{}); err != nil {
		t.Fatal(err)
	}
	return u
}

func load(pred string, attrs ...rel.Attr) Lit {
	return Lit{Pred: pred, Ops: []Op{&Load{Pred: pred, Out: attrs}}}
}

func TestOpStrings(t *testing.T) {
	u := testUniverse(t)
	x := u.A("x", "V", 0)
	y := u.A("y", "V", 1)
	cases := []struct {
		op   Op
		want string
	}{
		{&Load{Pred: "vP"}, "Load vP"},
		{&Load{Pred: "vP", Delta: true}, "Load ΔvP"},
		{&SelectConst{Attr: "field", Val: 3}, "SelectConst field=3"},
		{&EquateAttrs{A: "a", B: "b"}, "EquateAttrs a=b"},
		{&Project{Drop: []string{"x", "y"}}, "Project -[x,y]"},
		{&Reshape{Spec: map[string]rel.Remap{
			"b": {NewName: "y", NewPhys: y.Phys},
			"a": {NewName: "x", NewPhys: x.Phys},
		}}, "Reshape a->x@V0, b->y@V1"},
		{&Complement{}, "Complement"},
		{&JoinProject{}, "JoinProject"},
		{&JoinProject{Drop: []string{"v1"}}, "JoinProject -[v1]"},
		{&BindFull{Attr: y}, "BindFull y:V@V1"},
		{&ConstHead{Attr: x, Val: 2}, "ConstHead x=2"},
		{&DupHead{JoinAttr: x, NewAttr: y}, "DupHead y=x"},
	}
	for _, c := range cases {
		if got := c.op.String(); got != c.want {
			t.Errorf("%T: got %q, want %q", c.op, got, c.want)
		}
	}
	if got := SchemaSig([]rel.Attr{x, y}); got != "(x:V@V0, y:V@V1)" {
		t.Errorf("SchemaSig: got %q", got)
	}
}

// threeLitPlan is A(x,y), B(y,z), C(z,w) with head vars x and w.
func threeLitPlan(t *testing.T) *Plan {
	u := testUniverse(t)
	x, y, z := u.A("x", "V", 0), u.A("y", "V", 1), u.A("z", "V", 2)
	w := u.A("w", "H", 0)
	p := &Plan{
		Rule:     "h(x,w) :- A(x,y), B(y,z), C(z,w).",
		Head:     "h",
		Lits:     []Lit{load("A", x, y), load("B", y, z), load("C", z, w)},
		DeltaPos: -1,
		Keep:     []string{"x", "w"},
		HeadSchema: []rel.Attr{
			{Name: "a", Dom: x.Dom, Phys: x.Phys},
			{Name: "b", Dom: w.Dom, Phys: w.Phys},
		},
	}
	Finish(p)
	return p
}

func cardOf(m map[string]float64) func(string) float64 {
	return func(pred string) float64 { return m[pred] }
}

func TestFinishIdentityOrder(t *testing.T) {
	p := threeLitPlan(t)
	if !reflect.DeepEqual(p.Order, []int{0, 1, 2}) {
		t.Fatalf("Finish order = %v", p.Order)
	}
	// Push-down over textual order: y last used by B (step 1), z by C
	// (step 2); x and w are head variables and survive.
	if got := p.Joins[0].Drop; len(got) != 0 {
		t.Errorf("step 0 drop = %v", got)
	}
	if got := p.Joins[1].Drop; !reflect.DeepEqual(got, []string{"y"}) {
		t.Errorf("step 1 drop = %v", got)
	}
	if got := p.Joins[2].Drop; !reflect.DeepEqual(got, []string{"z"}) {
		t.Errorf("step 2 drop = %v", got)
	}
}

func TestOptimizeDefersCrossProduct(t *testing.T) {
	// h(x,w) :- A(x,y), C(z,w), B(y,z): the textual order would join A
	// against C with no shared variable (a cross product). The planner
	// keeps the anchor A and pulls B forward (connected via y).
	u := testUniverse(t)
	x, y, z := u.A("x", "V", 0), u.A("y", "V", 1), u.A("z", "V", 2)
	w := u.A("w", "H", 0)
	p := &Plan{
		Rule:     "h(x,w) :- A(x,y), C(z,w), B(y,z).",
		Head:     "h",
		Lits:     []Lit{load("A", x, y), load("C", z, w), load("B", y, z)},
		DeltaPos: -1,
		Keep:     []string{"x", "w"},
		HeadSchema: []rel.Attr{
			{Name: "a", Dom: x.Dom, Phys: x.Phys},
			{Name: "b", Dom: w.Dom, Phys: w.Phys},
		},
	}
	Finish(p)
	card := cardOf(map[string]float64{"A": 100, "B": 10, "C": 50})
	q := Optimize(p, card)
	if !reflect.DeepEqual(q.Order, []int{0, 2, 1}) {
		t.Fatalf("reordered = %v", q.Order)
	}
	// Push-down recomputed for the chosen order: y dies at the B step,
	// z at the C step.
	if !reflect.DeepEqual(q.Joins[1].Drop, []string{"y"}) || !reflect.DeepEqual(q.Joins[2].Drop, []string{"z"}) {
		t.Fatalf("drops = %v, %v", q.Joins[1].Drop, q.Joins[2].Drop)
	}
	// The input plan is untouched (copy-on-write).
	if !reflect.DeepEqual(p.Order, []int{0, 1, 2}) {
		t.Fatal("Optimize mutated its input")
	}
	// Final schema still carries exactly the head variables.
	final := q.Joins[len(q.Joins)-1].Out
	names := map[string]bool{}
	for _, a := range final {
		names[a.Name] = true
	}
	if len(names) != 2 || !names["x"] || !names["w"] {
		t.Fatalf("final schema = %v", SchemaSig(final))
	}
}

// TestOptimizeAnchorsFirstLiteral pins the anchoring conservatism: a
// base (non-delta) plan keeps the rule author's leading literal even
// when another literal is cheaper.
func TestOptimizeAnchorsFirstLiteral(t *testing.T) {
	p := threeLitPlan(t)
	card := cardOf(map[string]float64{"A": 100, "B": 10, "C": 50})
	q := Optimize(p, card)
	if q.Order[0] != 0 {
		t.Fatalf("anchor literal moved: order = %v", q.Order)
	}
	if !reflect.DeepEqual(q.Order, []int{0, 1, 2}) {
		t.Fatalf("order = %v", q.Order)
	}
}

// TestOptimizeDeltaTail checks the tail order under a delta rotation:
// after ΔC leads, B (connected via z) must come before the unconnected
// A.
func TestOptimizeDeltaTail(t *testing.T) {
	p := threeLitPlan(t)
	card := cardOf(map[string]float64{"A": 100, "B": 10, "C": 50})
	q := Optimize(p.WithDelta(2), card)
	if !reflect.DeepEqual(q.Order, []int{2, 1, 0}) {
		t.Fatalf("delta-tail order = %v", q.Order)
	}
}

// TestOptimizeEmptyCostsUniverse pins the empty-relation conservatism
// on the unavoidable-cross-product pick: a zero-cardinality literal (a
// stratum-local recursive relation at planning time) is costed at its
// schema's domain product, so a populated literal is scheduled first.
func TestOptimizeEmptyCostsUniverse(t *testing.T) {
	u := testUniverse(t)
	x, y, z := u.A("x", "V", 0), u.A("y", "V", 1), u.A("z", "V", 2)
	w := u.A("w", "H", 0)
	// Neither B(z,w) nor C(z,w) connects to the anchor A(x,y): a cross
	// product is forced and cardinality decides. B is empty — costing
	// it zero would schedule it ahead of C; its 8×8 universe must not.
	p := &Plan{
		Rule:     "h(x,w) :- A(x,y), B(z,w), C(z,w).",
		Head:     "h",
		Lits:     []Lit{load("A", x, y), load("B", z, w), load("C", z, w)},
		DeltaPos: -1,
		Keep:     []string{"x", "w"},
		HeadSchema: []rel.Attr{
			{Name: "a", Dom: x.Dom, Phys: x.Phys},
			{Name: "b", Dom: w.Dom, Phys: w.Phys},
		},
	}
	Finish(p)
	card := cardOf(map[string]float64{"A": 100, "B": 0, "C": 50})
	q := Optimize(p, card)
	if !reflect.DeepEqual(q.Order, []int{0, 2, 1}) {
		t.Fatalf("empty B not deferred: order = %v", q.Order)
	}
}

func TestOptimizeDeltaFirst(t *testing.T) {
	p := threeLitPlan(t)
	card := cardOf(map[string]float64{"A": 100, "B": 10, "C": 50})
	q := Optimize(p.WithDelta(0), card)
	// The delta literal leads regardless of cardinality; B (connected
	// via y, cheapest) follows, then C.
	if !reflect.DeepEqual(q.Order, []int{0, 1, 2}) {
		t.Fatalf("delta order = %v", q.Order)
	}
	if !q.Lits[0].Delta() || q.Lits[1].Delta() {
		t.Fatal("WithDelta flagged the wrong literal")
	}
	if p.Lits[0].Delta() {
		t.Fatal("WithDelta mutated its input")
	}
	if !strings.Contains(q.Lits[0].Ops[0].String(), "ΔA") {
		t.Fatalf("delta load renders as %q", q.Lits[0].Ops[0].String())
	}
}

func TestNegativesStayLast(t *testing.T) {
	u := testUniverse(t)
	x, y := u.A("x", "V", 0), u.A("y", "V", 1)
	neg := load("N", x)
	neg.Negated = true
	neg.Ops = append(neg.Ops, &Complement{Out: []rel.Attr{x}})
	p := &Plan{
		Rule: "h(x,y) :- A(x,y), !N(x).", Head: "h", DeltaPos: -1,
		Lits:       []Lit{load("A", x, y), neg},
		Keep:       []string{"x", "y"},
		HeadSchema: []rel.Attr{x, y},
	}
	Finish(p)
	q := Optimize(p, cardOf(map[string]float64{"A": 5, "N": 1}))
	if !reflect.DeepEqual(q.Order, []int{0, 1}) {
		t.Fatalf("negated literal reordered: %v", q.Order)
	}
}

func TestDeadOpElimination(t *testing.T) {
	u := testUniverse(t)
	a := u.A("a", "V", 0)
	b := u.A("b", "V", 1)
	// Reshape with one identity entry (a->a@V0) and one real move
	// (b->y@V2): only the identity entry is dead.
	y := u.A("y", "V", 2)
	spec := map[string]rel.Remap{
		"a": {NewName: "a", NewPhys: a.Phys},
		"b": {NewName: "y", NewPhys: y.Phys},
	}
	lit := Lit{Pred: "R", Ops: []Op{
		&Load{Pred: "R", Out: []rel.Attr{a, b}},
		&Reshape{Spec: spec, Out: []rel.Attr{a, y}},
	}}
	p := &Plan{
		Rule: "h(a,y) :- R(a,y).", Head: "h", DeltaPos: -1,
		Lits: []Lit{lit}, Keep: []string{"a", "y"},
		HeadSchema: []rel.Attr{a, y},
	}
	Finish(p)
	q := Optimize(p, nil)
	rs := q.Lits[0].Ops[1].(*Reshape)
	if _, has := rs.Spec["a"]; has {
		t.Errorf("identity reshape entry survived: %v", rs.Spec)
	}
	if _, has := rs.Spec["b"]; !has {
		t.Errorf("real reshape entry pruned: %v", rs.Spec)
	}
	// A fully-identity reshape vanishes entirely.
	lit2 := Lit{Pred: "R", Ops: []Op{
		&Load{Pred: "R", Out: []rel.Attr{a, b}},
		&Reshape{Spec: map[string]rel.Remap{"a": {NewName: "a", NewPhys: a.Phys}}, Out: []rel.Attr{a, b}},
	}}
	p2 := &Plan{
		Rule: "h(a,b) :- R(a,b).", Head: "h", DeltaPos: -1,
		Lits: []Lit{lit2}, Keep: []string{"a", "b"},
		HeadSchema: []rel.Attr{a, b},
	}
	Finish(p2)
	q2 := Optimize(p2, nil)
	if !q2.Lits[0].Trivial() {
		t.Errorf("all-identity reshape not eliminated: %d ops", len(q2.Lits[0].Ops))
	}
	// The canonical lowered plan, the "before" side of -explain, keeps it.
	if p2.Lits[0].Trivial() {
		t.Error("Optimize pruned its input plan")
	}
}

func TestFormatStable(t *testing.T) {
	p := threeLitPlan(t)
	var b1, b2 strings.Builder
	p.Format(&b1, nil)
	p.Format(&b2, nil)
	if b1.String() != b2.String() {
		t.Fatal("Format is not deterministic")
	}
	for _, want := range []string{"Load A", "Load B", "Load C", "JoinProject -[y]", "JoinProject -[z]", ":: ("} {
		if !strings.Contains(b1.String(), want) {
			t.Errorf("plan text missing %q:\n%s", want, b1.String())
		}
	}
	var b3 strings.Builder
	p.Format(&b3, cardOf(map[string]float64{"A": 7}))
	if !strings.Contains(b3.String(), "~7 tuples") {
		t.Errorf("cardinality annotation missing:\n%s", b3.String())
	}
}
