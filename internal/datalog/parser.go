package datalog

import (
	"strconv"
	"strings"

	"bddbddb/internal/datalog/check"
)

// Parse parses and checks a Datalog program in the dialect used
// throughout the paper (see the package comment for the grammar). It is
// ParseFile with no file name; diagnostics have no file prefix.
func Parse(src string) (*Program, error) { return ParseFile("", src) }

// ParseFile parses and checks a program, attributing diagnostics to
// file. Checker warnings are discarded; callers that want them use
// ParseAndCheck.
func ParseFile(file, src string) (*Program, error) {
	prog, diags, err := ParseAndCheck(file, src)
	if err != nil {
		return nil, err
	}
	if err := diags.Err(); err != nil {
		return nil, err
	}
	return prog, nil
}

// ParseAndCheck parses a program and runs the semantic checker
// (datalog/check) over it. A non-nil error reports a syntax failure —
// there is no AST to analyze — and is itself a *check.Error carrying a
// DL000 diagnostic. Otherwise the returned diagnostics hold everything
// the checker found, warnings and errors both; the program is safe to
// solve only when diags.HasErrors() is false.
func ParseAndCheck(file, src string) (*Program, check.Diags, error) {
	prog := &Program{File: file}
	if err := parseInto(prog, src); err != nil {
		return nil, nil, err
	}
	return prog, check.Program(prog), nil
}

// parseInto parses src and appends its declarations and rules to prog,
// attributing diagnostics to prog.File.
func parseInto(prog *Program, src string) error {
	toks, err := lexAll(prog.File, src)
	if err != nil {
		return err
	}
	p := &parser{file: prog.File, toks: toks}
	for !p.at(tokEOF) {
		switch {
		case p.at(tokDirective):
			if err := p.directive(prog); err != nil {
				return err
			}
		default:
			r, err := p.rule()
			if err != nil {
				return err
			}
			prog.Rules = append(prog.Rules, r)
		}
	}
	return nil
}

// MustParse is Parse for programs embedded in source; it panics on error.
func MustParse(src string) *Program {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

type parser struct {
	file string
	toks []token
	pos  int
}

func (p *parser) cur() token          { return p.toks[p.pos] }
func (p *parser) at(k tokenKind) bool { return p.toks[p.pos].kind == k }

func (p *parser) advance() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) errorf(t token, format string, args ...any) error {
	return check.Errorf(check.CodeSyntax, p.file, t.line, t.col, format, args...)
}

func (p *parser) expect(k tokenKind) (token, error) {
	if !p.at(k) {
		return token{}, p.errorf(p.cur(), "expected %v, found %v %q",
			k, p.cur().kind, p.cur().text)
	}
	return p.advance(), nil
}

func (p *parser) directive(prog *Program) error {
	d := p.advance()
	switch d.text {
	case "domain":
		name, err := p.expect(tokIdent)
		if err != nil {
			return err
		}
		sizeTok, err := p.expect(tokNumber)
		if err != nil {
			return err
		}
		size, err := strconv.ParseUint(sizeTok.text, 10, 64)
		if err != nil {
			return p.errorf(sizeTok, "bad domain size %q", sizeTok.text)
		}
		decl := &DomainDecl{Name: cleanIdent(name.text), Size: size, Line: d.line, Col: d.col}
		// Optional map file.
		if p.at(tokIdent) || p.at(tokString) {
			decl.MapFile = p.advance().text
		}
		prog.Domains = append(prog.Domains, decl)
		return nil
	case "relation":
		name, err := p.expect(tokIdent)
		if err != nil {
			return err
		}
		if _, err := p.expect(tokLParen); err != nil {
			return err
		}
		decl := &RelationDecl{Name: cleanIdent(name.text), Line: d.line, Col: d.col}
		for {
			an, err := p.expect(tokIdent)
			if err != nil {
				return err
			}
			if _, err := p.expect(tokColon); err != nil {
				return err
			}
			dn, err := p.expect(tokIdent)
			if err != nil {
				return err
			}
			decl.Attrs = append(decl.Attrs, AttrDecl{Name: an.text, Domain: dn.text, Line: dn.line, Col: dn.col})
			if p.at(tokComma) {
				p.advance()
				continue
			}
			break
		}
		if _, err := p.expect(tokRParen); err != nil {
			return err
		}
		for p.at(tokIdent) && (p.cur().text == "input" || p.cur().text == "output") {
			if p.cur().text == "input" {
				decl.Kind = RelInput
			} else {
				decl.Kind = RelOutput
			}
			p.advance()
		}
		prog.Relations = append(prog.Relations, decl)
		return nil
	case "bddvarorder":
		tok, err := p.expect(tokIdent)
		if err != nil {
			return err
		}
		if prog.Order != nil {
			return check.Errorf(check.CodeVarOrder, p.file, d.line, d.col,
				".bddvarorder declared twice")
		}
		prog.Order = strings.Split(tok.text, "_")
		prog.OrderLine, prog.OrderCol = d.line, d.col
		return nil
	default:
		return p.errorf(d, "unknown directive .%s", d.text)
	}
}

func (p *parser) rule() (*Rule, error) {
	head, err := p.atom()
	if err != nil {
		return nil, err
	}
	r := &Rule{Head: head, Line: head.Line, Col: head.Col}
	if p.at(tokDot) {
		p.advance()
		return r, nil
	}
	if _, err := p.expect(tokTurnstile); err != nil {
		return nil, err
	}
	for {
		neg := false
		if p.at(tokBang) {
			p.advance()
			neg = true
		}
		a, err := p.atom()
		if err != nil {
			return nil, err
		}
		r.Body = append(r.Body, Literal{Atom: a, Negated: neg})
		if p.at(tokComma) {
			p.advance()
			continue
		}
		break
	}
	if _, err := p.expect(tokDot); err != nil {
		return nil, err
	}
	return r, nil
}

func (p *parser) atom() (Atom, error) {
	name, err := p.expect(tokIdent)
	if err != nil {
		return Atom{}, err
	}
	a := Atom{Pred: cleanIdent(name.text), Line: name.line, Col: name.col}
	if _, err := p.expect(tokLParen); err != nil {
		return Atom{}, err
	}
	for {
		t := p.advance()
		switch t.kind {
		case tokIdent:
			a.Args = append(a.Args, Term{Kind: TermVar, Var: t.text, Line: t.line, Col: t.col})
		case tokUnderscore:
			a.Args = append(a.Args, Term{Kind: TermWildcard, Line: t.line, Col: t.col})
		case tokNumber, tokString:
			c, err := constTerm(p.file, t)
			if err != nil {
				return Atom{}, err
			}
			a.Args = append(a.Args, c)
		default:
			return Atom{}, p.errorf(t, "expected argument, found %v %q", t.kind, t.text)
		}
		if p.at(tokComma) {
			p.advance()
			continue
		}
		break
	}
	if _, err := p.expect(tokRParen); err != nil {
		return Atom{}, err
	}
	return a, nil
}

// constTerm turns a number or string token in argument position into
// its constant term. It is the parser's, and also binds the constants
// of each later query of a prepared shape (see QueryBase.Eval).
func constTerm(file string, t token) (Term, error) {
	if t.kind == tokString {
		return Term{Kind: TermNamedConst, Name: t.text, Line: t.line, Col: t.col}, nil
	}
	v, err := strconv.ParseUint(t.text, 10, 64)
	if err != nil {
		return Term{}, check.Errorf(check.CodeSyntax, file, t.line, t.col, "bad constant %q", t.text)
	}
	return Term{Kind: TermConst, Val: v, Line: t.line, Col: t.col}, nil
}
