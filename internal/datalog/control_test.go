package datalog

import (
	"context"
	"errors"
	"testing"

	"bddbddb/internal/resilience"
)

// chainSrc computes transitive closure over a chain. The recursive
// rule extends paths by one edge per round, so a chain of length n
// takes Θ(n) fixpoint iterations.
const chainSrc = `
.domain V 64
.relation e(a:V, b:V) input
.relation path(a:V, b:V) output
path(x,y) :- e(x,y).
path(x,z) :- path(x,y), e(y,z).
`

func fillChain(s *Solver, n uint64) {
	e := s.Relation("e")
	for i := uint64(0); i+1 < n; i++ {
		e.AddTuple(i, i+1)
	}
}

func TestSolveCancelReturnsTypedError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	s, err := NewSolver(MustParse(chainSrc), Options{
		Control: resilience.NewController(ctx, resilience.Budget{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	fillChain(s, 24)
	cancel()
	err = s.Solve()
	if !errors.Is(err, resilience.ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
}

func TestSolveIterationBudget(t *testing.T) {
	s, err := NewSolver(MustParse(chainSrc), Options{
		Control: resilience.NewController(context.Background(),
			resilience.Budget{MaxIterations: 3}),
	})
	if err != nil {
		t.Fatal(err)
	}
	fillChain(s, 24)
	err = s.Solve()
	var be *resilience.BudgetError
	if !errors.As(err, &be) || be.Resource != "iterations" {
		t.Fatalf("want iterations budget error, got %v", err)
	}
}

func TestStratumFaultPointPanicBecomesInternalError(t *testing.T) {
	restore := resilience.SetFaultHook(func(name string) {
		if name == resilience.FaultStratumStart {
			panic("injected stratum failure")
		}
	})
	defer restore()
	s, err := NewSolver(MustParse(chainSrc), Options{})
	if err != nil {
		t.Fatal(err)
	}
	fillChain(s, 8)
	err = s.Solve()
	if !errors.Is(err, resilience.ErrInternal) {
		t.Fatalf("want ErrInternal, got %v", err)
	}
	var ie *resilience.InternalError
	if !errors.As(err, &ie) || ie.Panic != "injected stratum failure" {
		t.Fatalf("panic value lost: %v", err)
	}
}
