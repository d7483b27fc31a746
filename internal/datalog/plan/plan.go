package plan

import (
	"fmt"
	"io"
	"strings"

	"bddbddb/internal/rel"
)

// Lit is one body literal's normalization pipeline. Ops[0] is always a
// Load; the rest (SelectConst*, EquateAttrs*, Project?, Reshape?,
// Complement?) bring the stored relation into the rule's variable
// space. The pipeline is iteration-invariant for non-delta literals,
// which is what makes normalization hoisting sound.
type Lit struct {
	Pred    string
	Negated bool
	Ops     []Op
}

// Trivial reports whether the pipeline is a bare Load — the stored
// relation already is the normalized form, so the interpreter can
// borrow it without cloning.
func (l *Lit) Trivial() bool { return len(l.Ops) == 1 }

// Distributive reports whether the pipeline distributes over union —
// every op but Complement does — so that the normalized form of a
// grown source is the old form united with the pipeline over the
// growth alone.
func (l *Lit) Distributive() bool {
	for _, o := range l.Ops {
		if _, ok := o.(*Complement); ok {
			return false
		}
	}
	return true
}

// Delta reports whether this literal reads the iteration delta.
func (l *Lit) Delta() bool { return l.Ops[0].(*Load).Delta }

// Schema is the pipeline's output schema.
func (l *Lit) Schema() []rel.Attr { return l.Ops[len(l.Ops)-1].Schema() }

// Plan is the compiled form of one rule: literal pipelines in stable
// textual order (positives first, then negatives — the identity delta
// positions and hoisting caches are keyed by), a join order over them,
// per-join-step projection sets, and the head-construction tail.
type Plan struct {
	// Rule is the rule's source text, Head its head predicate.
	Rule, Head string
	// Lits holds the literal pipelines in canonical order.
	Lits []Lit
	// Order lists indices into Lits in join order.
	Order []int
	// DeltaPos is the index (into Lits) of the literal reading the
	// delta relation, or -1 for the base/non-incremental variant.
	DeltaPos int
	// Joins[k] merges Lits[Order[k]] into the accumulator; its Drop
	// set is the projection push-down result for this order.
	Joins []*JoinProject
	// HeadOps (BindFull*, Reshape?, DupHead*, ConstHead*) turn the
	// final accumulator into the head relation's schema.
	HeadOps []Op
	// HeadSchema is the head relation's schema (also the schema of the
	// last head op, but available even when HeadOps is empty).
	HeadSchema []rel.Attr
	// Keep names the rule variables the joins must preserve for the
	// head (first occurrences of head variables).
	Keep []string
}

// WithDelta returns a copy of the plan whose literal at position pos
// reads the delta relation. Join order and drops are untouched — run
// Optimize on the result to re-plan around the (usually small) delta.
func (p *Plan) WithDelta(pos int) *Plan {
	q := *p
	q.DeltaPos = pos
	q.Lits = make([]Lit, len(p.Lits))
	copy(q.Lits, p.Lits)
	l := &q.Lits[pos]
	ops := make([]Op, len(l.Ops))
	copy(ops, l.Ops)
	ld := *ops[0].(*Load)
	ld.Delta = true
	ops[0] = &ld
	l.Ops = ops
	return &q
}

// Format writes the plan's stable textual form: one line per op,
// literals in join order, each op followed by its output schema. The
// card function, when non-nil, annotates each Load with the source
// relation's live cardinality (the planner's cost input).
func (p *Plan) Format(w io.Writer, card func(pred string) float64) {
	var lines []string
	var sigs []string
	add := func(o Op, note string) {
		lines = append(lines, o.String()+note)
		sigs = append(sigs, SchemaSig(o.Schema()))
	}
	for k, idx := range p.Order {
		l := &p.Lits[idx]
		for j, o := range l.Ops {
			note := ""
			if j == 0 && card != nil && !l.Delta() {
				note = fmt.Sprintf("  ~%g tuples", card(l.Pred))
			}
			add(o, note)
		}
		add(p.Joins[k], "")
	}
	for _, o := range p.HeadOps {
		add(o, "")
	}
	width := 0
	for _, s := range lines {
		if len(s) > width {
			width = len(s)
		}
	}
	for i, s := range lines {
		fmt.Fprintf(w, "  %-*s :: %s\n", width, s, sigs[i])
	}
}

// String renders the plan without cardinality annotations.
func (p *Plan) String() string {
	var b strings.Builder
	p.Format(&b, nil)
	return b.String()
}
