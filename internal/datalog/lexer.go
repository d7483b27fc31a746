package datalog

import (
	"strings"
	"unicode"

	"bddbddb/internal/datalog/check"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokLParen
	tokRParen
	tokComma
	tokColon
	tokDot       // statement terminator
	tokDirective // .domain / .relation etc (dot followed by ident)
	tokTurnstile // :-
	tokBang
	tokUnderscore
)

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokIdent:
		return "identifier"
	case tokNumber:
		return "number"
	case tokString:
		return "string"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokComma:
		return "','"
	case tokColon:
		return "':'"
	case tokDot:
		return "'.'"
	case tokDirective:
		return "directive"
	case tokTurnstile:
		return "':-'"
	case tokBang:
		return "'!'"
	case tokUnderscore:
		return "'_'"
	default:
		return "token"
	}
}

type token struct {
	kind tokenKind
	text string
	line int
	col  int
}

type lexer struct {
	file      string
	src       string
	pos       int
	line      int
	lineStart int // offset of the current line's first byte
}

func newLexer(file, src string) *lexer { return &lexer{file: file, src: src, line: 1} }

// col is the 1-based column of the current position.
func (lx *lexer) col() int { return lx.pos - lx.lineStart + 1 }

func (lx *lexer) errorf(col int, format string, args ...any) error {
	return check.Errorf(check.CodeSyntax, lx.file, lx.line, col, format, args...)
}

func isIdentStart(r byte) bool {
	return r == '_' || unicode.IsLetter(rune(r)) || unicode.IsDigit(rune(r))
}

// '+' joins interleaved domain groups in .bddvarorder (C+HC); it is
// accepted in identifier bodies so the order still lexes as one token.
// No other construct uses '+', and a stray one inside a name surfaces
// as an unknown-name diagnostic rather than a syntax error.
func isIdentBody(r byte) bool {
	return r == '_' || r == '$' || r == '+' || unicode.IsLetter(rune(r)) || unicode.IsDigit(rune(r)) || r == '.'
}

// next returns the next token. Identifiers may contain dots (method
// names like PBEKeySpec.init); a dot is a terminator only when not
// followed by an identifier character, so rules still end with '.'.
func (lx *lexer) next() (token, error) {
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		switch {
		case c == '\n':
			lx.line++
			lx.pos++
			lx.lineStart = lx.pos
		case c == ' ' || c == '\t' || c == '\r':
			lx.pos++
		case c == '#':
			for lx.pos < len(lx.src) && lx.src[lx.pos] != '\n' {
				lx.pos++
			}
		default:
			goto scan
		}
	}
	return token{kind: tokEOF, line: lx.line, col: lx.col()}, nil

scan:
	c := lx.src[lx.pos]
	line := lx.line
	col := lx.col()
	switch c {
	case '(':
		lx.pos++
		return token{tokLParen, "(", line, col}, nil
	case ')':
		lx.pos++
		return token{tokRParen, ")", line, col}, nil
	case ',':
		lx.pos++
		return token{tokComma, ",", line, col}, nil
	case '!':
		lx.pos++
		return token{tokBang, "!", line, col}, nil
	case ':':
		if lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '-' {
			lx.pos += 2
			return token{tokTurnstile, ":-", line, col}, nil
		}
		lx.pos++
		return token{tokColon, ":", line, col}, nil
	case '"':
		lx.pos++
		start := lx.pos
		for lx.pos < len(lx.src) && lx.src[lx.pos] != '"' {
			if lx.src[lx.pos] == '\n' {
				return token{}, lx.errorf(col, "unterminated string")
			}
			lx.pos++
		}
		if lx.pos >= len(lx.src) {
			return token{}, lx.errorf(col, "unterminated string")
		}
		text := lx.src[start:lx.pos]
		lx.pos++
		return token{tokString, text, line, col}, nil
	case '.':
		// Directive if followed by a letter at the start of a statement;
		// otherwise a terminator dot.
		if lx.pos+1 < len(lx.src) && unicode.IsLetter(rune(lx.src[lx.pos+1])) {
			start := lx.pos + 1
			lx.pos++
			for lx.pos < len(lx.src) && isIdentBody(lx.src[lx.pos]) && lx.src[lx.pos] != '.' {
				lx.pos++
			}
			return token{tokDirective, lx.src[start:lx.pos], line, col}, nil
		}
		lx.pos++
		return token{tokDot, ".", line, col}, nil
	}
	if c == '_' && (lx.pos+1 >= len(lx.src) || !isIdentBody(lx.src[lx.pos+1]) || lx.src[lx.pos+1] == '.') {
		lx.pos++
		return token{tokUnderscore, "_", line, col}, nil
	}
	if c >= '0' && c <= '9' {
		start := lx.pos
		for lx.pos < len(lx.src) && lx.src[lx.pos] >= '0' && lx.src[lx.pos] <= '9' {
			lx.pos++
		}
		// 2^63 style sizes are written as plain integers; exponents via
		// suffixless digits only.
		return token{tokNumber, lx.src[start:lx.pos], line, col}, nil
	}
	if isIdentStart(c) {
		start := lx.pos
		for lx.pos < len(lx.src) && isIdentBody(lx.src[lx.pos]) {
			// A trailing dot belongs to the statement, not the identifier:
			// consume a dot only when followed by more identifier chars.
			if lx.src[lx.pos] == '.' {
				if lx.pos+1 >= len(lx.src) || !isIdentBody(lx.src[lx.pos+1]) || lx.src[lx.pos+1] == '.' {
					break
				}
			}
			lx.pos++
		}
		return token{tokIdent, lx.src[start:lx.pos], line, col}, nil
	}
	return token{}, lx.errorf(col, "unexpected character %q", string(rune(c)))
}

// lexAll tokenizes the whole input (convenience for the parser).
func lexAll(file, src string) ([]token, error) {
	lx := newLexer(file, src)
	// Sized for the short tokens and single spaces of typical queries.
	toks := make([]token, 0, len(src)/3+1)
	for {
		t, err := lx.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			return toks, nil
		}
	}
}

// cleanIdent strips surrounding whitespace (defensive; the lexer should
// never produce padded identifiers).
func cleanIdent(s string) string { return strings.TrimSpace(s) }
