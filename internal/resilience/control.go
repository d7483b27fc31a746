package resilience

import (
	"context"
	"time"
)

// Budget bounds the resources one run may consume. The zero value is
// unlimited. Budgets are enforced cooperatively: the BDD manager checks
// MaxLiveNodes when its table grows or garbage-collects, the deadline
// is polled inside the long recursive BDD operations and at every rule
// application, and MaxIterations is checked when a fixpoint iteration
// starts — so a run overshoots its budget by at most one operation.
type Budget struct {
	// MaxLiveNodes caps the BDD manager's live nodes (0 = unlimited).
	// Live nodes are the solver's dominant memory cost (~29 bytes per
	// node in this implementation, 20 in the paper's).
	MaxLiveNodes int
	// Timeout is the wall-clock budget for the whole run, measured from
	// the Controller's creation (0 = none).
	Timeout time.Duration
	// MaxIterations caps the total number of fixpoint iterations across
	// all strata (0 = unlimited).
	MaxIterations int64
}

// IsZero reports whether the budget imposes no limits.
func (b Budget) IsZero() bool {
	return b.MaxLiveNodes == 0 && b.Timeout == 0 && b.MaxIterations == 0
}

// pollStride is how many Poll calls pass between deadline/cancel
// checks in the hot recursive BDD loops. Each check reads the
// monotonic clock and the context's done channel; at 2^13 operations
// per check the measured overhead on the planner workloads is well
// under the 2% target while still bounding abort latency to a few
// thousand node operations.
const pollStride = 1 << 13

// Controller combines a cancellation context with a resource budget.
// It is the single object threaded through bdd, datalog, callgraph,
// and analysis. A nil *Controller is valid everywhere and disables all
// checks, so unconfigured runs pay only nil tests.
//
// A Controller is used by one run at a time (the solver is
// single-goroutine); the context may of course be canceled from other
// goroutines.
type Controller struct {
	ctx      context.Context
	done     <-chan struct{} // ctx.Done(), cached
	deadline time.Time       // zero = none
	start    time.Time
	budget   Budget
	iters    int64
	polls    uint32
	tag      string
}

// NewController creates a controller for one run. ctx may be nil
// (context.Background()). The wall-clock deadline is the tighter of
// budget.Timeout (measured from now) and ctx's own deadline. A nil
// Controller is returned when ctx is background-like and the budget is
// zero, so the disabled path stays literally free.
func NewController(ctx context.Context, budget Budget) *Controller {
	if ctx == nil {
		ctx = context.Background()
	}
	if budget.IsZero() && ctx.Done() == nil {
		if _, ok := ctx.Deadline(); !ok {
			return nil
		}
	}
	now := time.Now()
	c := &Controller{
		ctx:    ctx,
		done:   ctx.Done(),
		start:  now,
		budget: budget,
	}
	if budget.Timeout > 0 {
		c.deadline = now.Add(budget.Timeout)
	}
	if d, ok := ctx.Deadline(); ok && (c.deadline.IsZero() || d.Before(c.deadline)) {
		c.deadline = d
	}
	return c
}

// SetTag attaches an identity (the daemon's request ID) to the run;
// every typed error this controller raises carries it, so a budget
// trip deep inside a BDD recursion still names the request it killed.
// Safe on nil controllers (no-op). Set before the run starts — the
// Controller is single-run and the tag is read from the run's own
// goroutine.
func (c *Controller) SetTag(tag string) {
	if c != nil {
		c.tag = tag
	}
}

// Tag returns the identity set by SetTag ("" for nil controllers).
func (c *Controller) Tag() string {
	if c == nil {
		return ""
	}
	return c.tag
}

// Budget returns the controller's budget (zero for nil controllers).
func (c *Controller) Budget() Budget {
	if c == nil {
		return Budget{}
	}
	return c.budget
}

// Context returns the controller's context (Background for nil).
func (c *Controller) Context() context.Context {
	if c == nil {
		return context.Background()
	}
	return c.ctx
}

// Err performs the full cancellation/deadline check and returns the
// typed error, or nil. It is the slow path behind Poll and Check.
func (c *Controller) Err() error {
	if c == nil {
		return nil
	}
	select {
	case <-c.done:
		err := c.ctx.Err()
		if err == context.DeadlineExceeded {
			var limit int64
			if !c.deadline.IsZero() {
				limit = int64(c.deadline.Sub(c.start))
			}
			return &BudgetError{Resource: "deadline", Limit: limit, Used: int64(time.Since(c.start)), Tag: c.tag}
		}
		return &CancelError{Cause: err, Tag: c.tag}
	default:
	}
	if !c.deadline.IsZero() && time.Now().After(c.deadline) {
		return &BudgetError{
			Resource: "deadline",
			Limit:    int64(c.deadline.Sub(c.start)),
			Used:     int64(time.Since(c.start)),
			Tag:      c.tag,
		}
	}
	return nil
}

// Check is the coarse-grained boundary check (per rule application,
// per pipeline phase): full cancellation/deadline test, abort on
// violation. Called from code whose panics are converted back to
// errors by a Recover boundary.
func (c *Controller) Check() {
	if c == nil {
		return
	}
	if err := c.Err(); err != nil {
		Abort(err)
	}
}

// Poll is the fine-grained check for the hot recursive BDD loops
// (relprod, replace, apply). It runs the full check only every
// pollStride calls, so its steady-state cost is a counter increment.
// Aborts on violation. The full check lives out of line in
// strideExpired, so Poll stays within the compiler's inlining budget
// and its steady state costs no call.
func (c *Controller) Poll() {
	if c == nil {
		return
	}
	c.polls++
	if c.polls&(pollStride-1) == 0 {
		c.strideExpired()
	}
}

// strideExpired is Poll's full check, once per pollStride calls.
//
//go:noinline
func (c *Controller) strideExpired() {
	if err := c.Err(); err != nil {
		Abort(err)
	}
}

// CheckNodes enforces the live-node budget. The BDD manager calls it
// when the node table grows and after every garbage collection — the
// two moments the live population changes materially — so overshoot is
// bounded by one table doubling. Aborts on violation.
func (c *Controller) CheckNodes(live int) {
	if c == nil || c.budget.MaxLiveNodes == 0 {
		return
	}
	if live > c.budget.MaxLiveNodes {
		Abort(&BudgetError{Resource: "nodes", Limit: int64(c.budget.MaxLiveNodes), Used: int64(live), Tag: c.tag})
	}
}

// AddIteration counts one fixpoint iteration against the budget and
// runs the coarse check. Aborts on violation.
func (c *Controller) AddIteration() {
	if c == nil {
		return
	}
	c.iters++
	if c.budget.MaxIterations > 0 && c.iters > c.budget.MaxIterations {
		Abort(&BudgetError{Resource: "iterations", Limit: c.budget.MaxIterations, Used: c.iters, Tag: c.tag})
	}
	c.Check()
}
