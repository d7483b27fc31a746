package resilience

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestExitCodes(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{nil, ExitOK},
		{errors.New("boring"), ExitError},
		{&BudgetError{Resource: "nodes", Limit: 1, Used: 2}, ExitBudget},
		{&BudgetError{Resource: "deadline"}, ExitBudget},
		{&CancelError{Cause: context.Canceled}, ExitCanceled},
		{&InternalError{Panic: "boom"}, ExitInternal},
	}
	for _, c := range cases {
		if got := ExitCode(c.err); got != c.want {
			t.Errorf("ExitCode(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

func TestRecoverConvertsAbort(t *testing.T) {
	run := func() (err error) {
		defer Recover(&err)
		Abort(&BudgetError{Resource: "nodes", Limit: 10, Used: 11})
		return nil
	}
	err := run()
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
	var be *BudgetError
	if !errors.As(err, &be) || be.Resource != "nodes" || be.Used != 11 {
		t.Fatalf("lost operands: %v", err)
	}
}

func TestRecoverConvertsPanic(t *testing.T) {
	run := func() (err error) {
		defer Recover(&err)
		panic("domain mismatch: V0 vs H1")
	}
	err := run()
	if !errors.Is(err, ErrInternal) {
		t.Fatalf("want ErrInternal, got %v", err)
	}
	var ie *InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("want *InternalError, got %T", err)
	}
	if ie.Panic != "domain mismatch: V0 vs H1" || len(ie.Stack) == 0 {
		t.Fatalf("panic value or stack lost: %+v", ie)
	}
}

func TestRecoverKeepsExistingError(t *testing.T) {
	sentinel := errors.New("primary failure")
	run := func() (err error) {
		defer Recover(&err)
		err = sentinel
		Abort(&CancelError{Cause: context.Canceled})
		return err
	}
	if err := run(); err != sentinel {
		t.Fatalf("secondary abort replaced primary error: %v", err)
	}
}

func TestControllerNilIsFree(t *testing.T) {
	var c *Controller
	c.Check()
	c.Poll()
	c.CheckNodes(1 << 30)
	c.AddIteration()
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if c := NewController(context.Background(), Budget{}); c != nil {
		t.Fatal("zero budget + background ctx should yield a nil controller")
	}
}

func TestControllerCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	c := NewController(ctx, Budget{})
	if c == nil {
		t.Fatal("cancelable ctx must yield a controller")
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	cancel()
	err := c.Err()
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
}

func TestControllerDeadline(t *testing.T) {
	c := NewController(context.Background(), Budget{Timeout: time.Nanosecond})
	time.Sleep(time.Millisecond)
	err := c.Err()
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
	var be *BudgetError
	if !errors.As(err, &be) || be.Resource != "deadline" {
		t.Fatalf("want deadline resource, got %v", err)
	}
}

func TestControllerContextDeadlineClassifiesAsBudget(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	c := NewController(ctx, Budget{})
	time.Sleep(time.Millisecond)
	err := c.Err()
	var be *BudgetError
	if !errors.As(err, &be) || be.Resource != "deadline" {
		t.Fatalf("ctx deadline should classify as deadline budget, got %v", err)
	}
}

func TestControllerNodeAndIterationBudgets(t *testing.T) {
	trip := func(f func(c *Controller)) (err error) {
		defer Recover(&err)
		c := NewController(context.Background(), Budget{MaxLiveNodes: 100, MaxIterations: 2})
		f(c)
		return nil
	}
	err := trip(func(c *Controller) { c.CheckNodes(101) })
	var be *BudgetError
	if !errors.As(err, &be) || be.Resource != "nodes" {
		t.Fatalf("want nodes budget error, got %v", err)
	}
	if err := trip(func(c *Controller) { c.CheckNodes(100) }); err != nil {
		t.Fatalf("at-limit nodes should pass: %v", err)
	}
	err = trip(func(c *Controller) {
		c.AddIteration()
		c.AddIteration()
		c.AddIteration()
	})
	if !errors.As(err, &be) || be.Resource != "iterations" {
		t.Fatalf("want iterations budget error, got %v", err)
	}
}

func TestPollStride(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	c := NewController(ctx, Budget{})
	cancel()
	// The first pollStride-1 polls must stay cheap and silent; the
	// stride boundary must abort.
	aborted := func() (err error) {
		defer Recover(&err)
		for i := 0; i < pollStride*2; i++ {
			c.Poll()
		}
		return nil
	}()
	if !errors.Is(aborted, ErrCanceled) {
		t.Fatalf("poll never hit the stride check: %v", aborted)
	}
}

func TestFaultPointHook(t *testing.T) {
	var seen []string
	restore := SetFaultHook(func(name string) { seen = append(seen, name) })
	FaultPoint(FaultBDDGrow)
	FaultPoint(FaultStratumStart)
	restore()
	FaultPoint(FaultSnapshotSwap) // after restore: no hook
	if len(seen) != 2 || seen[0] != FaultBDDGrow || seen[1] != FaultStratumStart {
		t.Fatalf("hook saw %v", seen)
	}
}

// TestControllerTag: a tagged controller stamps every typed error it
// raises with the run's identity (the daemon's request ID).
func TestControllerTag(t *testing.T) {
	c := NewController(context.Background(), Budget{MaxLiveNodes: 10})
	c.SetTag("req-abc123")
	if c.Tag() != "req-abc123" {
		t.Fatalf("Tag = %q", c.Tag())
	}
	var err error
	func() {
		defer Recover(&err)
		c.CheckNodes(11)
	}()
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v", err)
	}
	if be.Tag != "req-abc123" {
		t.Errorf("BudgetError.Tag = %q", be.Tag)
	}
	if !strings.Contains(be.Error(), "[req-abc123]") {
		t.Errorf("Error() missing tag: %s", be.Error())
	}

	ctx, cancel := context.WithCancel(context.Background())
	c2 := NewController(ctx, Budget{})
	c2.SetTag("req-def")
	cancel()
	cerr := c2.Err()
	var ce *CancelError
	if !errors.As(cerr, &ce) || ce.Tag != "req-def" {
		t.Errorf("cancel err = %v", cerr)
	}

	// Nil controllers accept and report tags safely.
	var nilC *Controller
	nilC.SetTag("x")
	if nilC.Tag() != "" {
		t.Errorf("nil Tag = %q", nilC.Tag())
	}
}
