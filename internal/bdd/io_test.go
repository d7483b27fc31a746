package bdd

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"bddbddb/internal/resilience"
)

// buildSample constructs a manager with a few variables and a pair of
// structurally-sharing functions to dump.
func buildSample(t *testing.T) (*Manager, []Node) {
	t.Helper()
	m := New(1<<10, 1<<8)
	m.AddVars(6)
	x0, x1, x2 := m.Var(0), m.Var(1), m.Var(2)
	a := m.And(x0, x1) // x0 ∧ x1
	b := m.Or(a, x2)   // shares a's DAG
	c := m.Xor(x1, x2) // independent
	return m, []Node{a, b, c, True, False}
}

func TestDAGRoundTripSameManager(t *testing.T) {
	m, roots := buildSample(t)
	var buf bytes.Buffer
	if err := m.WriteDAG(&buf, roots); err != nil {
		t.Fatal(err)
	}
	got, err := m.ReadDAG(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(roots) {
		t.Fatalf("got %d roots, want %d", len(got), len(roots))
	}
	// Hash-consing makes equality literal: the same function is the
	// same node index within one manager.
	for i := range roots {
		if got[i] != roots[i] {
			t.Fatalf("root %d: got node %d, want %d", i, got[i], roots[i])
		}
	}
}

func TestDAGRoundTripFreshManager(t *testing.T) {
	m, roots := buildSample(t)
	var buf bytes.Buffer
	if err := m.WriteDAG(&buf, roots); err != nil {
		t.Fatal(err)
	}
	m2 := New(1<<10, 1<<8)
	m2.AddVars(6)
	got, err := m2.ReadDAG(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Compare by truth table over the 6 variables.
	assign := make([]bool, 6)
	for bits := 0; bits < 1<<6; bits++ {
		for i := range assign {
			assign[i] = bits&(1<<i) != 0
		}
		for r := range roots {
			if m.Eval(roots[r], assign) != m2.Eval(got[r], assign) {
				t.Fatalf("root %d differs at assignment %06b", r, bits)
			}
		}
	}
	// Roots must come back referenced: a GC must not reclaim them.
	m2.GC()
	for r, n := range got {
		if n > 1 && m2.nodes[n].low == freeMark {
			t.Fatalf("root %d collected after GC", r)
		}
	}
}

func TestDAGReadRejectsGarbage(t *testing.T) {
	m := New(1<<10, 1<<8)
	m.AddVars(2)
	if _, err := m.ReadDAG(bytes.NewReader([]byte("not a dump at all"))); err == nil {
		t.Fatal("want magic error")
	}
}

func TestDAGReadRejectsForeignLevels(t *testing.T) {
	m, roots := buildSample(t)
	var buf bytes.Buffer
	if err := m.WriteDAG(&buf, roots); err != nil {
		t.Fatal(err)
	}
	small := New(1<<10, 1<<8)
	small.AddVars(1) // dump uses levels up to 2
	if _, err := small.ReadDAG(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("want level-range error")
	}
}

func TestDAGReadRejectsTruncated(t *testing.T) {
	m, roots := buildSample(t)
	var buf bytes.Buffer
	if err := m.WriteDAG(&buf, roots); err != nil {
		t.Fatal(err)
	}
	dump := buf.Bytes()
	m2 := New(1<<10, 1<<8)
	m2.AddVars(6)
	// Every proper prefix must fail with an error, never panic.
	for cut := 0; cut < len(dump); cut++ {
		if _, err := m2.ReadDAG(bytes.NewReader(dump[:cut])); err == nil {
			t.Fatalf("truncation at %d bytes accepted", cut)
		}
	}
}

func TestDAGReadHugeCountNoOOM(t *testing.T) {
	// A corrupted node count of 2^32-1 must fail at the first short
	// read instead of preallocating a multi-GiB table.
	dump := append([]byte{}, dagMagic[:]...)
	dump = append(dump, 0xFF, 0xFF, 0xFF, 0xFF) // count = 2^32-1, then EOF
	m := New(1<<10, 1<<8)
	m.AddVars(2)
	if _, err := m.ReadDAG(bytes.NewReader(dump)); err == nil {
		t.Fatal("want truncation error for huge node count")
	}
}

func TestDAGReadRejectsLevelOrderViolation(t *testing.T) {
	// Hand-craft a dump whose inner node sits at a level >= its child's:
	// node 0 at level 1 (children terminals), node 1 at level 1 with
	// node 0 as a child — an ordering violation that used to panic in
	// makeNode and must now come back as a plain error.
	var buf bytes.Buffer
	buf.Write(dagMagic[:])
	le := func(v uint32) {
		var b [4]byte
		b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		buf.Write(b[:])
	}
	le(2) // node count
	le(1) // node 0: level 1
	le(0) // low = False
	le(1) // high = True
	le(1) // node 1: level 1 (same as child — violation)
	le(2) // low = node 0
	le(1) // high = True
	le(1) // root count
	le(3) // root = node 1
	m := New(1<<10, 1<<8)
	m.AddVars(4)
	_, err := m.ReadDAG(bytes.NewReader(buf.Bytes()))
	if err == nil {
		t.Fatal("want level-order error")
	}
	if errors.Is(err, resilience.ErrInternal) {
		t.Fatalf("ordering violation should be a validation error, not a panic-backed internal error: %v", err)
	}
}

func TestControlNodeBudgetTripsAtGrow(t *testing.T) {
	run := func() (err error) {
		defer resilience.Recover(&err)
		m := New(1<<10, 1<<8)
		m.SetControl(resilience.NewController(context.Background(),
			resilience.Budget{MaxLiveNodes: 1 << 9}))
		m.AddVars(40)
		// Parity of 40 variables blows well past 2^9 nodes via growth.
		f := False
		for i := int32(0); i < 40; i++ {
			v := m.Var(i)
			nf := m.Xor(f, v)
			m.Deref(f)
			m.Deref(v)
			f = nf
		}
		return nil
	}
	err := run()
	if !errors.Is(err, resilience.ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
	var be *resilience.BudgetError
	if !errors.As(err, &be) || be.Resource != "nodes" {
		t.Fatalf("want nodes resource, got %v", err)
	}
}

func TestControlCancelTripsInApply(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	run := func() (err error) {
		defer resilience.Recover(&err)
		m := New(1<<16, 1<<10)
		m.SetControl(resilience.NewController(ctx, resilience.Budget{}))
		m.AddVars(40)
		cancel() // cancel before the heavy work; the poll stride must notice
		f := False
		for i := int32(0); i < 40; i++ {
			v := m.Var(i)
			nf := m.Xor(f, v)
			m.Deref(f)
			m.Deref(v)
			f = nf
		}
		// Hammer apply enough times to pass the poll stride even with
		// small operands.
		for i := 0; i < 1<<16; i++ {
			m.Deref(m.And(f, f))
		}
		return nil
	}
	err := run()
	if !errors.Is(err, resilience.ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
}

func TestGrowFaultPoint(t *testing.T) {
	fired := 0
	restore := resilience.SetFaultHook(func(name string) {
		if name == resilience.FaultBDDGrow {
			fired++
		}
	})
	defer restore()
	m := New(1<<10, 1<<8)
	m.AddVars(40)
	f := False
	for i := int32(0); i < 40; i++ {
		v := m.Var(i)
		nf := m.Xor(f, v)
		m.Deref(f)
		m.Deref(v)
		f = nf
	}
	if fired == 0 {
		t.Fatal("bdd.grow fault point never fired despite table growth")
	}
}

// TestDAGReadFailedRootsReleased checks that a read failing inside the
// root list releases the roots it had already referenced: after a GC
// the manager holds no more live nodes than before the read.
func TestDAGReadFailedRootsReleased(t *testing.T) {
	m, roots := buildSample(t)
	var buf bytes.Buffer
	if err := m.WriteDAG(&buf, roots); err != nil {
		t.Fatal(err)
	}
	dump := buf.Bytes()
	m2 := New(1<<10, 1<<8)
	m2.AddVars(6)
	m2.GC()
	base := m2.LiveNodes()
	// Cut inside the last root id: every earlier root was read and
	// referenced before the short read.
	if _, err := m2.ReadDAG(bytes.NewReader(dump[:len(dump)-2])); err == nil {
		t.Fatal("truncated root list accepted")
	}
	m2.GC()
	if live := m2.LiveNodes(); live != base {
		t.Fatalf("live nodes after failed read and GC: %d, want baseline %d", live, base)
	}
}

// FuzzReadDAG feeds arbitrary bytes to ReadDAG: it must never panic,
// and whether it fails or succeeds (with its roots released), a GC
// must bring the live node count back to its baseline.
func FuzzReadDAG(f *testing.F) {
	m := New(1<<10, 1<<8)
	m.AddVars(6)
	x0, x1, x2, x5 := m.Var(0), m.Var(1), m.Var(2), m.Var(5)
	a := m.And(x0, x1)
	for _, roots := range [][]Node{
		nil,
		{True, False},
		{x5},
		{a, m.Or(a, x2), m.Xor(x1, x2)},
		{m.Imp(m.And(x0, x5), m.Not(x2)), a, a},
	} {
		var buf bytes.Buffer
		if err := m.WriteDAG(&buf, roots); err != nil {
			f.Fatal(err)
		}
		dump := buf.Bytes()
		f.Add(dump)
		for _, cut := range []int{len(dump) / 2, len(dump) - 5, len(dump) - 1} {
			if cut > 0 {
				f.Add(dump[:cut])
			}
		}
	}
	f.Fuzz(func(t *testing.T, dump []byte) {
		m := New(1<<10, 1<<8)
		m.AddVars(6)
		m.GC()
		base := m.LiveNodes()
		roots, err := m.ReadDAG(bytes.NewReader(dump))
		if errors.Is(err, resilience.ErrInternal) {
			t.Fatalf("ReadDAG panicked: %v", err)
		}
		for _, r := range roots {
			m.Deref(r)
		}
		m.GC()
		if live := m.LiveNodes(); live != base {
			t.Fatalf("live nodes after read (err %v) and GC: %d, want baseline %d", err, live, base)
		}
	})
}
