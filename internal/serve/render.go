package serve

import (
	"math"
	"slices"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"

	"bddbddb/internal/datalog"
)

// renderResult serializes a finished query as
//
//	{"query": ..., "outputs": [{"relation", "attrs", "tuples", "count",
//	 "truncated"}, ...], "stats": {"rule_applications", "iterations",
//	 "solve_ms"}}
//
// Tuples render as objects keyed by attribute name with element names
// as values (the paper's .map naming), so answers are directly readable
// and can be pasted back into further queries. Each output relation is
// truncated at maxTuples rows; count is the number of rows, which for
// a truncated output takes an exact count of the relation, so
// truncation is visible, never silent.
//
// The body is appended byte by byte, with no intermediate maps or
// reflection: it is what encoding/json.Marshal writes for the same
// value, tuple objects with their keys in sorted order, and strings
// escaped as Marshal escapes them.
func renderResult(query string, res *datalog.QueryResult, maxTuples int, elapsed time.Duration) []byte {
	b := make([]byte, 0, 512)
	b = append(b, `{"query":`...)
	b = appendJSONString(b, query)
	b = append(b, `,"outputs":[`...)
	for i, r := range res.Outputs {
		if i > 0 {
			b = append(b, ',')
		}
		attrs := r.Attrs()
		b = append(b, `{"relation":`...)
		b = appendJSONString(b, r.Name)
		b = append(b, `,"attrs":`...)
		if len(attrs) == 0 {
			b = append(b, "null"...)
		} else {
			b = append(b, '[')
			for j, a := range attrs {
				if j > 0 {
					b = append(b, ',')
				}
				b = append(b, `{"name":`...)
				b = appendJSONString(b, a.Name)
				b = append(b, `,"domain":`...)
				b = appendJSONString(b, a.Dom.Name)
				b = append(b, '}')
			}
			b = append(b, ']')
		}
		// A tuple's keys, rendered once, in the sorted order Marshal
		// writes a map's keys in; order[k] is the attribute of key k.
		order := make([]int, len(attrs))
		for j := range order {
			order[j] = j
		}
		slices.SortFunc(order, func(x, y int) int { return strings.Compare(attrs[x].Name, attrs[y].Name) })
		keys := make([][]byte, len(order))
		for k, j := range order {
			keys[k] = append(appendJSONString(nil, attrs[j].Name), ':')
		}
		b = append(b, `,"tuples":[`...)
		n, truncated := 0, false
		r.Iterate(func(vals []uint64) bool {
			if n >= maxTuples {
				truncated = true
				return false
			}
			if n > 0 {
				b = append(b, ',')
			}
			b = append(b, '{')
			for k, j := range order {
				if k > 0 {
					b = append(b, ',')
				}
				b = append(b, keys[k]...)
				b = appendJSONString(b, attrs[j].Dom.ElemName(vals[j]))
			}
			b = append(b, '}')
			n++
			return true
		})
		count := int64(n)
		if truncated {
			count = math.MaxInt64
			if size := r.Size(); size.IsInt64() {
				count = size.Int64()
			}
		}
		b = append(b, `],"count":`...)
		b = strconv.AppendInt(b, count, 10)
		b = append(b, `,"truncated":`...)
		b = strconv.AppendBool(b, truncated)
		b = append(b, '}')
	}
	b = append(b, `],"stats":{"rule_applications":`...)
	b = strconv.AppendInt(b, res.Stats.RuleApplications, 10)
	b = append(b, `,"iterations":`...)
	b = strconv.AppendInt(b, int64(res.Stats.Iterations), 10)
	b = append(b, `,"solve_ms":`...)
	b = appendJSONFloat(b, float64(elapsed.Microseconds())/1000)
	return append(b, "}}"...)
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as encoding/json.Marshal writes a string:
// quoted; '"', '\\' and control characters escaped (\b, \f, \n, \r and
// \t by name, the rest as \u00XX); '<', '>' and '&' escaped as \u00XX
// for safe embedding in HTML; each byte of invalid UTF-8 replaced by
// \ufffd; and U+2028 and U+2029 escaped, since JavaScript reads them as
// line ends.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// appendJSONFloat appends f as encoding/json.Marshal writes a float64:
// the shortest representation that round-trips, in exponent form only
// below 1e-6 or from 1e21 on, with a one-digit negative exponent
// unpadded (1e-7, not 1e-07).
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}
