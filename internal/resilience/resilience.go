// Package resilience is the solver's survival layer: resource budgets,
// cooperative cancellation, a typed failure taxonomy, and
// deterministic fault injection.
//
// The paper's context-sensitive runs take tens of minutes and grow BDD
// tables to hundreds of millions of nodes (Section 6); a service
// embedding the solver cannot let one bad query hang a worker or OOM
// the process. This package gives every long-running layer (bdd,
// datalog, callgraph, analysis) a shared control plane:
//
//   - A Budget bounds live BDD nodes, wall-clock time, and fixpoint
//     iterations. Budgets are checked at coarse boundaries (table
//     growth, GC, rule application, iteration start), so overshoot is
//     bounded by one operation.
//   - A Controller combines a context.Context with a Budget and is
//     polled from the recursive BDD operation loops. Those loops cannot
//     return errors, so a tripped Controller panics with a private
//     abort value; Recover at each public entry point converts it back
//     into the typed error. Any other panic becomes an *InternalError
//     carrying the captured stack.
//   - FaultPoint marks named places where tests can inject cancels,
//     budget trips, and panics deterministically (a no-op when no hook
//     is installed).
//
// The failure taxonomy is three sentinel errors — ErrBudgetExceeded,
// ErrCanceled, ErrInternal — matched with errors.Is; the concrete
// types (*BudgetError, *CancelError, *InternalError) carry the
// operands. ExitCode maps the taxonomy onto distinct process exit
// codes for the command-line tools.
package resilience

import (
	"errors"
	"fmt"
	"runtime/debug"
)

// Sentinel errors classifying every way a run can fail. Match with
// errors.Is; the concrete error types carry the details.
var (
	// ErrBudgetExceeded classifies runs stopped by a resource budget:
	// live BDD nodes, the wall-clock deadline, or fixpoint iterations.
	ErrBudgetExceeded = errors.New("resource budget exceeded")
	// ErrCanceled classifies runs stopped by context cancellation
	// (caller cancel or an interrupt signal).
	ErrCanceled = errors.New("run canceled")
	// ErrInternal classifies recovered panics: invariant violations
	// that would otherwise kill the embedding process.
	ErrInternal = errors.New("internal error")
)

// BudgetError reports which resource budget a run exhausted.
type BudgetError struct {
	// Resource names the exhausted budget: "nodes", "deadline", or
	// "iterations".
	Resource string
	// Limit and Used are the budget and the observed value when the
	// check fired (for "deadline", nanoseconds of wall clock).
	Limit, Used int64
	// Tag identifies the run the budget belonged to (the serving
	// daemon's request ID), so a 422/429 in an access log joins back to
	// the failure it reports. Empty outside request-scoped runs.
	Tag string
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("resilience: %s budget exceeded (limit %d, used %d)%s",
		e.Resource, e.Limit, e.Used, tagSuffix(e.Tag))
}

// Unwrap ties the error to the ErrBudgetExceeded class.
func (e *BudgetError) Unwrap() error { return ErrBudgetExceeded }

// CancelError reports a context cancellation, keeping the cause.
type CancelError struct {
	Cause error // the context's Err()
	// Tag identifies the canceled run; see BudgetError.Tag.
	Tag string
}

func (e *CancelError) Error() string {
	return fmt.Sprintf("resilience: canceled: %v%s", e.Cause, tagSuffix(e.Tag))
}

func tagSuffix(tag string) string {
	if tag == "" {
		return ""
	}
	return " [" + tag + "]"
}

// Unwrap ties the error to the ErrCanceled class.
func (e *CancelError) Unwrap() error { return ErrCanceled }

// InternalError is a recovered panic: the panic value plus the stack
// captured at the recovery boundary, so "domain mismatch"-style
// invariant violations stay debuggable after being converted to errors.
type InternalError struct {
	Panic any
	Stack []byte
}

func (e *InternalError) Error() string {
	return fmt.Sprintf("resilience: internal error: %v", e.Panic)
}

// Unwrap ties the error to the ErrInternal class.
func (e *InternalError) Unwrap() error { return ErrInternal }

// abort is the private panic payload used to carry a typed resilience
// error up through recursive code that cannot return errors (the BDD
// operation loops). Only Recover unwraps it.
type abort struct{ err error }

// Abort panics with err wrapped so that a Recover boundary returns it
// as a plain error. It is how budget checks and polls deep inside
// recursive BDD operations stop a run.
func Abort(err error) {
	panic(abort{err})
}

// Recover is the entry-point boundary: defer resilience.Recover(&err)
// converts an Abort back into its typed error and any other panic into
// an *InternalError with the captured stack. An error already set by
// the function body is kept in preference to a secondary abort raised
// during unwinding.
func Recover(errp *error) {
	r := recover()
	if r == nil {
		return
	}
	if a, ok := r.(abort); ok {
		if *errp == nil {
			*errp = a.err
		}
		return
	}
	*errp = &InternalError{Panic: r, Stack: debug.Stack()}
}

// Process exit codes per failure class, shared by all commands.
const (
	ExitOK       = 0
	ExitError    = 1 // ordinary failure (bad input, I/O, rejected program)
	ExitUsage    = 2 // flag.Parse convention
	ExitBudget   = 3 // a resource budget tripped (nodes, deadline, iterations)
	ExitCanceled = 4 // canceled by the caller or an interrupt signal
	ExitInternal = 5 // recovered internal panic
)

// ExitCode maps an error onto the process exit code of its failure
// class. nil maps to ExitOK.
func ExitCode(err error) int {
	switch {
	case err == nil:
		return ExitOK
	case errors.Is(err, ErrBudgetExceeded):
		return ExitBudget
	case errors.Is(err, ErrCanceled):
		return ExitCanceled
	case errors.Is(err, ErrInternal):
		return ExitInternal
	default:
		return ExitError
	}
}
