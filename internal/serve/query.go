package serve

import (
	"errors"
	"fmt"
	"net/http"
	"strings"

	"bddbddb/internal/datalog"
	"bddbddb/internal/datalog/check"
	"bddbddb/internal/resilience"
)

// This file turns the paper's Section 5 interactive queries into canned
// Datalog templates for the GET endpoints, renders query results as
// JSON with named fields, and maps the typed failure taxonomy onto
// HTTP statuses.

// NormalizeQuery canonicalizes a query string for cache keying: strips
// '#' comments and collapses all whitespace runs to single spaces.
// Queries differing only in layout share a cache entry. Quoted
// constants are copied verbatim, so a '#' or a space inside a name
// survives; as in the Datalog lexer, a quote runs to the next quote or
// the end of its line, and a newline that ends one unterminated is kept
// so the parser still reports it.
func NormalizeQuery(src string) string {
	var sb strings.Builder
	space := false // a whitespace run or comment precedes the next token
	for i := 0; i < len(src); i++ {
		switch c := src[i]; c {
		case ' ', '\t', '\r', '\n':
			space = true
		case '#':
			for i+1 < len(src) && src[i+1] != '\n' {
				i++
			}
			space = true
		default:
			if space && sb.Len() > 0 {
				sb.WriteByte(' ')
			}
			space = false
			if c != '"' {
				sb.WriteByte(c)
				continue
			}
			j := i + 1
			for j < len(src) && src[j] != '"' && src[j] != '\n' {
				j++
			}
			if j < len(src) {
				j++ // the closing quote, or the newline that ends it early
			}
			sb.WriteString(src[i:j])
			i = j - 1
		}
	}
	return sb.String()
}

// exprName reports whether an element name can be spliced into a query
// as a quoted constant. The Datalog lexer has no escape sequences, so
// names containing a quote (or newline) are unaddressable by text
// query — in practice extractor-generated names never contain either.
func exprName(name string) bool {
	return name != "" && !strings.ContainsAny(name, "\"\n\r")
}

// quoted splices a name that passed exprName into a query as a quoted
// constant, verbatim: Go's %q would escape a backslash or a tab, which
// the lexer would then read as different text.
func quoted(name string) string { return `"` + name + `"` }

// shape describes which points-to relations the snapshot holds, which
// decides the canned templates' bodies (context-sensitive runs
// materialize vPC(context, variable, heap); heap-cloned runs add
// cvP(context, variable, hctx, heap); context-insensitive runs
// vP(variable, heap)).
type shape struct {
	hasVP, hasVPC, hasCVP, hasStore bool
}

func shapeOf(has func(string) bool) shape {
	return shape{hasVP: has("vP"), hasVPC: has("vPC"), hasCVP: has("cvP"), hasStore: has("store")}
}

// pointstoQuery: which heap objects may the named variable point to —
// the paper's whoPointsTo in reverse. Heap-cloned snapshots report the
// heap context alongside each object, so the answer distinguishes the
// clones of one allocation site.
func (sh shape) pointstoQuery(varName string) (string, error) {
	switch {
	case sh.hasVP:
		return fmt.Sprintf(".relation pointsto (heap : H) output\npointsto(h) :- vP(%s, h).\n", quoted(varName)), nil
	case sh.hasCVP:
		return fmt.Sprintf(".relation pointsto (hctx : HC, heap : H) output\npointsto(hc, h) :- cvP(_, %s, hc, h).\n", quoted(varName)), nil
	case sh.hasVPC:
		return fmt.Sprintf(".relation pointsto (heap : H) output\npointsto(h) :- vPC(_, %s, h).\n", quoted(varName)), nil
	}
	return "", &datalog.QueryRejectError{Reason: "snapshot holds neither vP nor vPC"}
}

// aliasesQuery: which variables may alias the named one (share a
// points-to target in some context). Heap-cloned snapshots match on
// the (hctx, heap) pair, so two variables reaching different clones of
// the same allocation site no longer count as aliases.
func (sh shape) aliasesQuery(varName string) (string, error) {
	switch {
	case sh.hasVP:
		return fmt.Sprintf(".relation aliases (alias : V) output\naliases(v) :- vP(%s, h), vP(v, h).\n", quoted(varName)), nil
	case sh.hasCVP:
		return fmt.Sprintf(".relation aliases (alias : V) output\naliases(v) :- cvP(_, %s, hc, h), cvP(_, v, hc, h).\n", quoted(varName)), nil
	case sh.hasVPC:
		return fmt.Sprintf(".relation aliases (alias : V) output\naliases(v) :- vPC(_, %s, h), vPC(_, v, h).\n", quoted(varName)), nil
	}
	return "", &datalog.QueryRejectError{Reason: "snapshot holds neither vP nor vPC"}
}

// whodunnitQuery is Section 5.1's whoDunnit: which stores (and, when
// context-sensitive, under which contexts) could have written a
// reference to the named heap object into some field.
func (sh shape) whodunnitQuery(heapName string) (string, error) {
	switch {
	case !sh.hasStore:
		return "", &datalog.QueryRejectError{Reason: "snapshot holds no store relation"}
	case sh.hasVPC:
		return fmt.Sprintf(".relation whodunnit (context : C, source : V, field : F, target : V) output\n"+
			"whodunnit(c, v1, f, v2) :- store(v1, f, v2), vPC(c, v2, %s).\n", quoted(heapName)), nil
	case sh.hasVP:
		return fmt.Sprintf(".relation whodunnit (source : V, field : F, target : V) output\n"+
			"whodunnit(v1, f, v2) :- store(v1, f, v2), vP(v2, %s).\n", quoted(heapName)), nil
	}
	return "", &datalog.QueryRejectError{Reason: "snapshot holds neither vP nor vPC"}
}

type attrJSON struct {
	Name   string `json:"name"`
	Domain string `json:"domain"`
}

type errorJSON struct {
	Error string `json:"error"`
	Class string `json:"class"`
	// RequestID echoes the request's trace identity so an error body
	// alone is enough to find the matching access-log line.
	RequestID string `json:"request_id,omitempty"`
}

// statusFor maps the query- and update-error taxonomy to HTTP
// statuses:
//
//	nil                        → 200
//	*check.Error               → 400 bad_query   (malformed query text)
//	datalog.ErrQueryRejected   → 422 rejected    (well-formed, not evaluable)
//	datalog.ErrUpdateRejected  → 422 rejected    (delta not applicable)
//	ErrUpdateInProgress        → 409 update_conflict
//	ErrUpdatesDisabled         → 501 updates_disabled
//	resilience.ErrBudgetExceeded → 429 budget    (per-request budget tripped)
//	resilience.ErrCanceled     → 503 canceled    (drain or client gone)
//	anything else              → 500 internal    (converted panic etc.)
func statusFor(err error) (int, string) {
	var ce *check.Error
	switch {
	case err == nil:
		return http.StatusOK, ""
	case errors.As(err, &ce):
		return http.StatusBadRequest, "bad_query"
	case errors.Is(err, datalog.ErrQueryRejected):
		return http.StatusUnprocessableEntity, "rejected"
	case errors.Is(err, datalog.ErrUpdateRejected):
		return http.StatusUnprocessableEntity, "rejected"
	case errors.Is(err, ErrUpdateInProgress):
		return http.StatusConflict, "update_conflict"
	case errors.Is(err, ErrUpdatesDisabled):
		return http.StatusNotImplemented, "updates_disabled"
	case errors.Is(err, resilience.ErrBudgetExceeded):
		return http.StatusTooManyRequests, "budget"
	case errors.Is(err, resilience.ErrCanceled):
		return http.StatusServiceUnavailable, "canceled"
	default:
		return http.StatusInternalServerError, "internal"
	}
}
