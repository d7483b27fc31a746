package check

import (
	"fmt"
	"strings"

	"bddbddb/internal/datalog/ast"
)

// Options tunes a check run.
type Options struct {
	// DomainSizes overrides declared domain sizes, mirroring
	// datalog.Options.DomainSizes: the solver checks constants against
	// the sizes it will actually run with, not the declared
	// placeholders.
	DomainSizes map[string]uint64
	// ErrorsOnly skips the DL100-series lint warnings, for callers that
	// act on errors alone.
	ErrorsOnly bool
}

// Program runs every check against the program and returns the
// diagnostics sorted by position.
func Program(p *ast.Program) Diags { return ProgramOpts(p, Options{}) }

// ProgramOpts is Program with options.
func ProgramOpts(p *ast.Program, opts Options) Diags {
	c := &checker{
		prog:    p,
		opts:    opts,
		domains: make(map[string]*ast.DomainDecl),
		rels:    make(map[string]*ast.RelationDecl),
	}
	c.declarations()
	c.varOrder()
	for _, r := range p.Rules {
		c.rule(r)
	}
	c.stratification()
	if !opts.ErrorsOnly {
		c.usage()
	}
	c.diags.Sort()
	return c.diags
}

type checker struct {
	prog    *ast.Program
	opts    Options
	domains map[string]*ast.DomainDecl
	rels    map[string]*ast.RelationDecl
	diags   Diags
}

func (c *checker) errorf(code string, line, col int, format string, args ...any) {
	c.add(code, SevError, line, col, format, args...)
}

func (c *checker) warnf(code string, line, col int, format string, args ...any) {
	c.add(code, SevWarning, line, col, format, args...)
}

func (c *checker) add(code string, sev Severity, line, col int, format string, args ...any) {
	c.diags = append(c.diags, Diag{
		Code:     code,
		Severity: sev,
		File:     c.prog.File,
		Line:     line,
		Col:      col,
		Message:  fmt.Sprintf(format, args...),
	})
}

// declarations checks DL001/DL002: domain and relation declarations
// resolve and are unique.
func (c *checker) declarations() {
	for _, d := range c.prog.Domains {
		if prev := c.domains[d.Name]; prev != nil {
			c.errorf(CodeDomain, d.Line, d.Col,
				"domain %s declared twice (first declared at line %d)", d.Name, prev.Line)
			continue
		}
		if d.Size == 0 {
			c.errorf(CodeDomain, d.Line, d.Col, "domain %s has zero size", d.Name)
		}
		c.domains[d.Name] = d
	}
	for _, r := range c.prog.Relations {
		if prev := c.rels[r.Name]; prev != nil {
			c.errorf(CodeRelation, r.Line, r.Col,
				"relation %s declared twice (first declared at line %d)", r.Name, prev.Line)
			continue
		}
		c.rels[r.Name] = r
		seen := make(map[string]bool)
		for _, a := range r.Attrs {
			if c.domains[a.Domain] == nil {
				c.errorf(CodeDomain, a.Line, a.Col,
					"relation %s: unknown domain %s", r.Name, a.Domain)
			}
			if seen[a.Name] {
				c.errorf(CodeRelation, a.Line, a.Col,
					"relation %s repeats attribute %s", r.Name, a.Name)
			}
			seen[a.Name] = true
		}
	}
}

// varOrder checks DL003: every name in .bddvarorder is a declared
// domain and appears once. An entry may interleave several domains
// into one block with "+" (C+HC); each constituent is checked.
func (c *checker) varOrder() {
	seen := make(map[string]bool)
	for _, entry := range c.prog.Order {
		for _, name := range strings.Split(entry, "+") {
			if c.domains[name] == nil {
				c.errorf(CodeVarOrder, c.prog.OrderLine, c.prog.OrderCol,
					".bddvarorder names unknown domain %s", name)
			}
			if seen[name] {
				c.errorf(CodeVarOrder, c.prog.OrderLine, c.prog.OrderCol,
					".bddvarorder lists domain %s twice", name)
			}
			seen[name] = true
		}
	}
}

// atom checks DL002/DL010 for one atom and returns its declaration, or
// nil when per-argument checks cannot proceed.
func (c *checker) atom(a *ast.Atom) *ast.RelationDecl {
	decl := c.rels[a.Pred]
	if decl == nil {
		c.errorf(CodeRelation, a.Line, a.Col, "undeclared relation %s", a.Pred)
		return nil
	}
	if len(a.Args) != decl.Arity() {
		c.errorf(CodeArity, a.Line, a.Col,
			"%s has arity %d, used with %d arguments", a.Pred, decl.Arity(), len(a.Args))
		return nil
	}
	return decl
}

// constRange checks DL011 for a numeric constant at argument position i.
// Named constants resolve through map files at solve time and cannot be
// checked statically.
func (c *checker) constRange(decl *ast.RelationDecl, i int, t ast.Term) {
	if decl == nil || t.Kind != ast.TermConst {
		return
	}
	dom := decl.Attrs[i].Domain
	size, ok := c.opts.DomainSizes[dom]
	if !ok {
		d := c.domains[dom]
		if d == nil {
			return
		}
		size = d.Size
	}
	if d, bad := ConstRange(c.prog.File, t, dom, size); bad {
		c.diags = append(c.diags, d)
	}
}

// ConstRange returns the DL011 diagnostic for the numeric constant t in
// domain dom of the given size, and whether t is out of range. Query
// evaluation checks each later query of a prepared shape's constants
// with it, so those diagnostics read exactly as the checker's own.
func ConstRange(file string, t ast.Term, dom string, size uint64) (Diag, bool) {
	if t.Val < size {
		return Diag{}, false
	}
	return Diag{
		Code:     CodeConstRange,
		Severity: SevError,
		File:     file,
		Line:     t.Line,
		Col:      t.Col,
		Message:  fmt.Sprintf("constant %d out of range for domain %s (size %d)", t.Val, dom, size),
	}, true
}

// rule checks one rule: argument forms (DL011/DL012), variable typing
// (DL010), rule safety (DL020), and negation safety (DL021).
func (c *checker) rule(r *ast.Rule) {
	headDecl := c.atom(&r.Head)

	if r.IsFact() {
		for i, t := range r.Head.Args {
			switch t.Kind {
			case ast.TermVar, ast.TermWildcard:
				c.errorf(CodeTermForm, t.Line, t.Col, "fact %s must be ground", r.Head.Pred)
			case ast.TermConst:
				c.constRange(headDecl, i, t)
			}
		}
		return
	}

	varDom := make(map[string]string)
	bind := func(a *ast.Atom, i int, decl *ast.RelationDecl) {
		if decl == nil {
			return
		}
		t := a.Args[i]
		switch t.Kind {
		case ast.TermConst:
			c.constRange(decl, i, t)
		case ast.TermVar:
			dom := decl.Attrs[i].Domain
			if prev, ok := varDom[t.Var]; ok {
				if prev != dom {
					c.errorf(CodeArity, t.Line, t.Col,
						"variable %s used with domains %s and %s", t.Var, prev, dom)
				}
				return
			}
			varDom[t.Var] = dom
		}
	}

	headVars := make(map[string]bool)
	for i, t := range r.Head.Args {
		if t.Kind == ast.TermWildcard {
			c.errorf(CodeTermForm, t.Line, t.Col, "don't-care in rule head")
		}
		if t.Kind == ast.TermVar {
			headVars[t.Var] = true
		}
		bind(&r.Head, i, headDecl)
	}

	occurrences := make(map[string]int)   // across head and body
	posBound := make(map[string]bool)     // bound by a positive literal
	negSeen := make(map[string]ast.Term)  // first occurrence in a negated literal
	bodyOnce := make(map[string]ast.Term) // first positive-body occurrence
	for _, t := range r.Head.Args {
		if t.Kind == ast.TermVar {
			occurrences[t.Var]++
		}
	}
	for li := range r.Body {
		lit := &r.Body[li]
		decl := c.atom(&lit.Atom)
		for i, t := range lit.Atom.Args {
			if decl != nil {
				bind(&lit.Atom, i, decl)
			}
			if lit.Negated && t.Kind == ast.TermWildcard {
				c.errorf(CodeTermForm, t.Line, t.Col,
					"don't-care inside negated literal %s (project first)", lit.Atom.Pred)
			}
			if t.Kind != ast.TermVar {
				continue
			}
			occurrences[t.Var]++
			if lit.Negated {
				if _, ok := negSeen[t.Var]; !ok {
					negSeen[t.Var] = t
				}
			} else {
				posBound[t.Var] = true
				if _, ok := bodyOnce[t.Var]; !ok {
					bodyOnce[t.Var] = t
				}
			}
		}
	}

	// DL020 — a head variable bound by no body literal at all would be
	// silently expanded to its full domain.
	reported := make(map[string]bool)
	for _, t := range r.Head.Args {
		if t.Kind != ast.TermVar || reported[t.Var] {
			continue
		}
		if !posBound[t.Var] {
			if _, neg := negSeen[t.Var]; !neg {
				c.errorf(CodeRuleSafety, t.Line, t.Col,
					"head variable %s is never bound in the rule body", t.Var)
				reported[t.Var] = true
			}
		}
	}

	// DL021 — a non-head variable only ever read under negation is an
	// existential over a complement: almost certainly an authoring
	// error. Head variables bound only by negated literals are the
	// engine's documented finite-universe semantics and stay legal.
	for v, t := range negSeen {
		if !posBound[v] && !headVars[v] {
			c.errorf(CodeNegSafety, t.Line, t.Col,
				"variable %s appears only in negated literals", v)
		}
	}

	// DL103 — a variable used exactly once (in a positive body literal)
	// carries no constraint and should be the don't-care _.
	for v, t := range bodyOnce {
		if occurrences[v] == 1 {
			c.warnf(CodeSingleUse, t.Line, t.Col,
				"variable %s is used only once; replace it with _", v)
		}
	}
}

// stratification checks DL030: no negated dependence inside a recursive
// cycle, reported with the actual predicate cycle.
func (c *checker) stratification() {
	if _, nc := Stratify(c.prog); nc != nil {
		c.errorf(CodeStratify, nc.Line, nc.Col, "program is not stratified: %s", nc)
	}
}

// usage emits the DL100-series lint warnings.
func (c *checker) usage() {
	used := make(map[string]bool)    // appears in some rule (head or body)
	derived := make(map[string]bool) // head of some rule or fact
	for _, r := range c.prog.Rules {
		used[r.Head.Pred] = true
		derived[r.Head.Pred] = true
		for i := range r.Body {
			used[r.Body[i].Atom.Pred] = true
		}
	}

	for _, rd := range c.prog.Relations {
		if !used[rd.Name] {
			c.warnf(CodeUnusedRel, rd.Line, rd.Col,
				"relation %s is declared but never used", rd.Name)
		}
	}

	for _, r := range c.prog.Rules {
		if r.IsFact() {
			// Seeding an input relation with ground facts is normal.
			continue
		}
		if decl := c.rels[r.Head.Pred]; decl != nil && decl.Kind == ast.RelInput {
			c.warnf(CodeInputHead, r.Head.Line, r.Head.Col,
				"input relation %s is also derived by a rule", r.Head.Pred)
		}
		for i := range r.Body {
			lit := &r.Body[i]
			if lit.Negated {
				continue
			}
			decl := c.rels[lit.Atom.Pred]
			if decl != nil && decl.Kind != ast.RelInput && !derived[lit.Atom.Pred] {
				c.warnf(CodeNeverFires, lit.Atom.Line, lit.Atom.Col,
					"rule can never fire: %s is never derived and is not an input", lit.Atom.Pred)
			}
		}
	}
}
