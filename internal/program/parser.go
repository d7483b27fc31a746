package program

import (
	"fmt"
	"strings"
)

// Parse reads the textual ".jp" program format:
//
//	entry Main.main
//
//	interface Runnable {
//	    abstract method work(x)
//	}
//
//	class Worker extends java.lang.Thread implements Runnable {
//	    field item
//	    method run() {
//	        var v: Item
//	        v = new Item
//	        this.item = v
//	    }
//	    static method helper(x: Item) returns r: Item {
//	        r = x
//	        return r
//	    }
//	}
//
// Statement forms: v = new T | v = w | v = w.f | v.f = w | v = w[] |
// w[] = v | v = global.f | global.f = v | [v =] w.m(a, ...) |
// [v =] T::m(a, ...) | return v | sync v | var v: T.
// '#' starts a comment.
func Parse(src string) (*Program, error) {
	p := &jpParser{lines: strings.Split(src, "\n")}
	prog, err := p.parse()
	if err != nil {
		return nil, err
	}
	if err := prog.validate(); err != nil {
		return nil, err
	}
	return prog, nil
}

// MustParse is Parse that panics on error, for tests and examples.
func MustParse(src string) *Program {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

type jpParser struct {
	lines []string
	i     int
}

func (p *jpParser) errf(format string, args ...any) error {
	return fmt.Errorf("line %d: %s", p.i, fmt.Sprintf(format, args...))
}

// nextLine returns the next non-empty, de-commented line.
func (p *jpParser) nextLine() (string, bool) {
	for p.i < len(p.lines) {
		line := p.lines[p.i]
		p.i++
		if idx := strings.IndexByte(line, '#'); idx >= 0 {
			line = line[:idx]
		}
		line = strings.TrimSpace(line)
		if line != "" {
			return line, true
		}
	}
	return "", false
}

func (p *jpParser) parse() (*Program, error) {
	prog := &Program{}
	for {
		line, ok := p.nextLine()
		if !ok {
			return prog, nil
		}
		switch {
		case strings.HasPrefix(line, "entry "):
			ref := strings.TrimSpace(strings.TrimPrefix(line, "entry "))
			dot := strings.LastIndexByte(ref, '.')
			if dot < 0 {
				return nil, p.errf("entry must be Class.method, got %q", ref)
			}
			prog.Entries = append(prog.Entries, MethodRef{Class: ref[:dot], Method: ref[dot+1:]})
		case strings.HasPrefix(line, "class ") || strings.HasPrefix(line, "interface "):
			c, err := p.classDecl(line)
			if err != nil {
				return nil, err
			}
			prog.Classes = append(prog.Classes, c)
		default:
			return nil, p.errf("expected 'entry', 'class' or 'interface', got %q", line)
		}
	}
}

func (p *jpParser) classDecl(header string) (*Class, error) {
	c := &Class{}
	rest := header
	if strings.HasPrefix(rest, "interface ") {
		c.IsInterface = true
		rest = strings.TrimPrefix(rest, "interface ")
	} else {
		rest = strings.TrimPrefix(rest, "class ")
	}
	if !strings.HasSuffix(rest, "{") {
		return nil, p.errf("class header must end with '{': %q", header)
	}
	rest = strings.TrimSpace(strings.TrimSuffix(rest, "{"))
	if idx := strings.Index(rest, " implements "); idx >= 0 {
		for _, s := range strings.Split(rest[idx+len(" implements "):], ",") {
			c.Interfaces = append(c.Interfaces, strings.TrimSpace(s))
		}
		rest = strings.TrimSpace(rest[:idx])
	}
	if idx := strings.Index(rest, " extends "); idx >= 0 {
		c.Super = strings.TrimSpace(rest[idx+len(" extends "):])
		rest = strings.TrimSpace(rest[:idx])
	}
	if rest == "" || strings.ContainsAny(rest, " \t") {
		return nil, p.errf("bad class name %q", rest)
	}
	c.Name = rest
	for {
		line, ok := p.nextLine()
		if !ok {
			return nil, p.errf("class %s not closed", c.Name)
		}
		switch {
		case line == "}":
			return c, nil
		case strings.HasPrefix(line, "field "):
			c.Fields = append(c.Fields, strings.TrimSpace(strings.TrimPrefix(line, "field ")))
		case strings.HasPrefix(line, "method ") || strings.HasPrefix(line, "static method ") ||
			strings.HasPrefix(line, "abstract method "):
			m, err := p.methodDecl(line)
			if err != nil {
				return nil, err
			}
			c.Methods = append(c.Methods, m)
		default:
			return nil, p.errf("expected field, method or '}', got %q", line)
		}
	}
}

func (p *jpParser) methodDecl(header string) (*Method, error) {
	m := &Method{VarTypes: make(map[string]string)}
	rest := header
	if strings.HasPrefix(rest, "static ") {
		m.Static = true
		rest = strings.TrimPrefix(rest, "static ")
	}
	if strings.HasPrefix(rest, "abstract ") {
		m.Abstract = true
		rest = strings.TrimPrefix(rest, "abstract ")
	}
	rest = strings.TrimPrefix(rest, "method ")
	open := strings.IndexByte(rest, '(')
	closeIdx := strings.IndexByte(rest, ')')
	if open < 0 || closeIdx < open {
		return nil, p.errf("bad method header %q", header)
	}
	m.Name = strings.TrimSpace(rest[:open])
	if params := strings.TrimSpace(rest[open+1 : closeIdx]); params != "" {
		for _, ps := range strings.Split(params, ",") {
			m.Params = append(m.Params, splitTyped(ps))
		}
	}
	tail := strings.TrimSpace(rest[closeIdx+1:])
	hasBody := strings.HasSuffix(tail, "{")
	tail = strings.TrimSpace(strings.TrimSuffix(tail, "{"))
	if strings.HasPrefix(tail, "returns ") {
		m.Ret = splitTyped(strings.TrimPrefix(tail, "returns "))
	} else if tail != "" {
		return nil, p.errf("unexpected %q in method header", tail)
	}
	if m.Abstract {
		if hasBody {
			return nil, p.errf("abstract method %s must not have a body", m.Name)
		}
		return m, nil
	}
	if !hasBody {
		return nil, p.errf("method %s missing '{'", m.Name)
	}
	for {
		line, ok := p.nextLine()
		if !ok {
			return nil, p.errf("method %s not closed", m.Name)
		}
		if line == "}" {
			return m, nil
		}
		if strings.HasPrefix(line, "var ") {
			d := splitTyped(strings.TrimPrefix(line, "var "))
			if d.Type == "" {
				return nil, p.errf("var declaration needs a type: %q", line)
			}
			m.VarTypes[d.Name] = d.Type
			continue
		}
		st, err := p.statement(line)
		if err != nil {
			return nil, err
		}
		m.Stmts = append(m.Stmts, st)
	}
}

func (p *jpParser) statement(line string) (Stmt, error) {
	switch {
	case strings.HasPrefix(line, "return "):
		return Stmt{Kind: StReturn, Src: strings.TrimSpace(strings.TrimPrefix(line, "return "))}, nil
	case strings.HasPrefix(line, "sync "):
		return Stmt{Kind: StSync, Src: strings.TrimSpace(strings.TrimPrefix(line, "sync "))}, nil
	}
	// Assignment or bare call.
	lhs, rhs, hasEq := splitAssign(line)
	if !hasEq {
		// Bare invocation.
		return p.callStmt("", line)
	}
	lhs, rhs = strings.TrimSpace(lhs), strings.TrimSpace(rhs)
	// Store forms on the left-hand side.
	if strings.HasSuffix(lhs, ArrayField) {
		base := strings.TrimSpace(strings.TrimSuffix(lhs, ArrayField))
		return Stmt{Kind: StStore, Dst: base, Field: ArrayField, Src: rhs}, nil
	}
	if dot := strings.IndexByte(lhs, '.'); dot >= 0 {
		base, field := lhs[:dot], lhs[dot+1:]
		if base == "global" {
			return Stmt{Kind: StStoreGlobal, Field: field, Src: rhs}, nil
		}
		return Stmt{Kind: StStore, Dst: base, Field: field, Src: rhs}, nil
	}
	// Right-hand side forms.
	switch {
	case strings.HasPrefix(rhs, "new "):
		return Stmt{Kind: StNew, Dst: lhs, Type: strings.TrimSpace(strings.TrimPrefix(rhs, "new "))}, nil
	case strings.ContainsRune(rhs, '('):
		return p.callStmt(lhs, rhs)
	case strings.HasSuffix(rhs, ArrayField):
		base := strings.TrimSpace(strings.TrimSuffix(rhs, ArrayField))
		return Stmt{Kind: StLoad, Dst: lhs, Src: base, Field: ArrayField}, nil
	case strings.ContainsRune(rhs, '.') && strings.HasPrefix(rhs, "global."):
		return Stmt{Kind: StLoadGlobal, Dst: lhs, Field: strings.TrimPrefix(rhs, "global.")}, nil
	case strings.ContainsRune(rhs, '.'):
		// Split at the first dot, as stores do: field names may be
		// qualified (Class.field), variable names never contain dots.
		dot := strings.IndexByte(rhs, '.')
		return Stmt{Kind: StLoad, Dst: lhs, Src: rhs[:dot], Field: rhs[dot+1:]}, nil
	default:
		return Stmt{Kind: StMove, Dst: lhs, Src: rhs}, nil
	}
}

// splitAssign splits on the first '=' outside parentheses.
func splitAssign(line string) (lhs, rhs string, ok bool) {
	depth := 0
	for i := 0; i < len(line); i++ {
		switch line[i] {
		case '(':
			depth++
		case ')':
			depth--
		case '=':
			if depth == 0 {
				return line[:i], line[i+1:], true
			}
		}
	}
	return "", "", false
}

func (p *jpParser) callStmt(dst, call string) (Stmt, error) {
	open := strings.IndexByte(call, '(')
	closeIdx := strings.LastIndexByte(call, ')')
	if open < 0 || closeIdx < open {
		return Stmt{}, p.errf("bad invocation %q", call)
	}
	target := strings.TrimSpace(call[:open])
	var args []string
	if a := strings.TrimSpace(call[open+1 : closeIdx]); a != "" {
		for _, s := range strings.Split(a, ",") {
			args = append(args, strings.TrimSpace(s))
		}
	}
	if idx := strings.Index(target, "::"); idx >= 0 {
		return Stmt{Kind: StInvoke, Dst: dst, Src: target[:idx], Callee: target[idx+2:], Args: args}, nil
	}
	dot := strings.LastIndexByte(target, '.')
	if dot < 0 {
		return Stmt{}, p.errf("invocation %q needs a receiver or Class::", call)
	}
	recv, callee := target[:dot], target[dot+1:]
	return Stmt{Kind: StInvoke, Dst: dst, Callee: callee, Args: append([]string{recv}, args...), Virtual: true}, nil
}
