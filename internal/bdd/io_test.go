package bdd

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"strings"
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

// sameFunctions compares roots of m and m2 by truth table over nvars.
func sameFunctions(t *testing.T, m *Manager, a []Node, m2 *Manager, b []Node, nvars int) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%d roots, want %d", len(b), len(a))
	}
	assign := make([]bool, nvars)
	for bits := 0; bits < 1<<nvars; bits++ {
		for i := range assign {
			assign[i] = bits&(1<<i) != 0
		}
		for r := range a {
			if m.Eval(a[r], assign) != m2.Eval(b[r], assign) {
				t.Fatalf("root %d differs at assignment %0*b", r, nvars, bits)
			}
		}
	}
}

// TestDAGDeltaChain writes a full dump and then a chain of deltas from
// one writer while the source manager collects and reuses slots
// between dumps, reads them into a reader in a second manager, and
// checks every generation's roots, the delta sizes, and that the
// structural hashes match a fresh writer's.
func TestDAGDeltaChain(t *testing.T) {
	const nvars = 7
	m := New(1<<10, 1<<8)
	m.AddVars(nvars)
	m2 := New(1<<10, 1<<8)
	m2.AddVars(nvars)
	w := m.NewDAGWriter()
	r := m2.NewDAGReader()
	vars := make([]Node, nvars)
	for i := range vars {
		vars[i] = m.Var(int32(i))
	}
	cur := []Node{m.And(vars[0], vars[1]), m.Or(vars[2], vars[3])}
	var prev []Node
	for step := 0; step < 12; step++ {
		var buf bytes.Buffer
		before := w.Len()
		n, err := w.Write(&buf, cur)
		if err != nil {
			t.Fatal(err)
		}
		if w.Len()-before != n {
			t.Fatalf("step %d: wrote %d records but issued %d ids", step, n, w.Len()-before)
		}
		if step > 0 && n > 2*nvars {
			t.Fatalf("step %d: delta holds %d records for a one-step change", step, n)
		}
		got, err := r.Read(&buf)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if r.Len() != w.Len() {
			t.Fatalf("step %d: reader holds %d ids, writer %d", step, r.Len(), w.Len())
		}
		sameFunctions(t, m, cur, m2, got, nvars)
		fresh := m.NewDAGWriter()
		if _, err := fresh.Write(io.Discard, cur); err != nil {
			t.Fatal(err)
		}
		for i, h := range w.RootHashes() {
			if h != fresh.RootHashes()[i] {
				t.Fatalf("step %d root %d: chained hash %x, fresh %x", step, i, h, fresh.RootHashes()[i])
			}
		}
		fresh.Release()
		for _, n := range prev {
			m2.Deref(n)
		}
		prev = got
		// Next generation: replace one root, drop the old one, and let
		// both managers collect so freed slots are reused.
		k := step % len(cur)
		next := m.Xor(cur[k], vars[(step+4)%nvars])
		m.Deref(cur[k])
		cur[k] = next
		m.GC()
		m2.GC()
	}
	// A delta over the wrong base and a second full dump are refused
	// without changing the reader.
	var full, delta bytes.Buffer
	if err := m.WriteDAG(&full, cur); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(&full); err == nil {
		t.Fatal("reader with ids accepted a second full dump")
	}
	other := m.NewDAGWriter()
	if _, err := other.Write(io.Discard, cur[:1]); err != nil {
		t.Fatal(err)
	}
	if _, err := other.Write(&delta, cur); err != nil {
		t.Fatal(err)
	}
	held := r.Len()
	if _, err := r.Read(&delta); err == nil || !strings.Contains(err.Error(), "base") {
		t.Fatalf("delta over the wrong base: err %v", err)
	}
	if r.Len() != held {
		t.Fatalf("rejected delta changed the reader: %d ids, want %d", r.Len(), held)
	}
	other.Release()
	// Releasing everything returns both managers to their variables.
	w.Release()
	r.Release()
	for _, n := range prev {
		m2.Deref(n)
	}
	for _, n := range cur {
		m.Deref(n)
	}
	for _, v := range vars {
		m.Deref(v)
	}
	if live := m.GC(); live != 2 {
		t.Fatalf("source manager holds %d nodes after release, want the 2 terminals", live)
	}
	if live := m2.GC(); live != 2 {
		t.Fatalf("reader's manager holds %d nodes after release, want the 2 terminals", live)
	}
}

// FuzzReadDAGDelta feeds arbitrary bytes to a reader that already
// holds a base dump: it must never panic, a rejected read must leave no
// node behind, a delta naming another base must be rejected, and a
// release after any read must return the manager to empty.
func FuzzReadDAGDelta(f *testing.F) {
	m := New(1<<10, 1<<8)
	m.AddVars(6)
	x0, x1, x2, x5 := m.Var(0), m.Var(1), m.Var(2), m.Var(5)
	a := m.And(x0, x1)
	baseRoots := []Node{a, m.Or(a, x2)}
	var base bytes.Buffer
	w := m.NewDAGWriter()
	if _, err := w.Write(&base, baseRoots); err != nil {
		f.Fatal(err)
	}
	baseDump := bytes.Clone(base.Bytes())
	var delta, wrong bytes.Buffer
	if _, err := w.Write(&delta, []Node{m.Xor(a, x5), baseRoots[1], True}); err != nil {
		f.Fatal(err)
	}
	// A delta written over a different base: the writer above after a
	// further delta.
	if _, err := w.Write(&wrong, []Node{m.Imp(m.And(x0, x5), m.Not(x2)), a}); err != nil {
		f.Fatal(err)
	}
	for _, d := range [][]byte{delta.Bytes(), wrong.Bytes()} {
		f.Add(d)
		for _, cut := range []int{len(d) / 2, len(d) - 5, len(d) - 1} {
			if cut > 0 {
				f.Add(d[:cut])
			}
		}
	}
	f.Fuzz(func(t *testing.T, dump []byte) {
		m := New(1<<10, 1<<8)
		m.AddVars(6)
		empty := m.GC()
		r := m.NewDAGReader()
		roots, err := r.Read(bytes.NewReader(baseDump))
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range roots {
			m.Deref(n)
		}
		held := m.GC()
		ids := r.Len()
		got, err := r.Read(bytes.NewReader(dump))
		if errors.Is(err, resilience.ErrInternal) {
			t.Fatalf("Read panicked: %v", err)
		}
		if len(dump) >= 12 && bytes.Equal(dump[:8], deltaMagic[:]) &&
			binary.LittleEndian.Uint32(dump[8:12]) != uint32(ids) && err == nil {
			t.Fatalf("delta over base %d accepted by a reader of %d ids", binary.LittleEndian.Uint32(dump[8:12]), ids)
		}
		if err != nil {
			if r.Len() != ids {
				t.Fatalf("rejected read (%v) left %d ids, want %d", err, r.Len(), ids)
			}
			if live := m.GC(); live != held {
				t.Fatalf("live nodes after rejected read (%v) and GC: %d, want %d", err, live, held)
			}
		}
		for _, n := range got {
			m.Deref(n)
		}
		r.Release()
		if live := m.GC(); live != empty {
			t.Fatalf("live nodes after release: %d, want %d", live, empty)
		}
	})
}

// TestDAGReaderRefusesDeltaOverNonCanonicalDump reads full dumps whose
// ids a walk from their roots does not reproduce, which the reader
// accepts but cannot rebuild its table from: the first delta over
// them is refused.
func TestDAGReaderRefusesDeltaOverNonCanonicalDump(t *testing.T) {
	dump := func(magic [8]byte, base int, records [][3]uint32, roots ...uint32) []byte {
		var b bytes.Buffer
		b.Write(magic[:])
		put := func(v uint32) { binary.Write(&b, binary.LittleEndian, v) }
		if magic == deltaMagic {
			put(uint32(base))
		}
		put(uint32(len(records)))
		for _, r := range records {
			put(r[0])
			put(r[1])
			put(r[2])
		}
		put(uint32(len(roots)))
		for _, r := range roots {
			put(r)
		}
		return b.Bytes()
	}
	for _, tc := range []struct {
		name    string
		records [][3]uint32
		root    uint32
	}{
		// id 3 (x1) is reached by no root.
		{"unreachable record", [][3]uint32{{2, 0, 1}, {1, 0, 1}}, 2},
		// The walk reaches x2 (the low child) first, so it would be id 2.
		{"records out of walk order", [][3]uint32{{1, 0, 1}, {2, 0, 1}, {0, 3, 2}}, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := New(1<<10, 1<<8)
			m.AddVars(3)
			r := m.NewDAGReader()
			roots, err := r.Read(bytes.NewReader(dump(dagMagic, 2, tc.records, tc.root)))
			if err != nil {
				t.Fatalf("full dump: %v", err)
			}
			held := r.Len()
			if _, err := r.Read(bytes.NewReader(dump(deltaMagic, held, nil, tc.root))); err == nil || !strings.Contains(err.Error(), "do not follow its roots") {
				t.Fatalf("delta over it: err %v", err)
			}
			if r.Len() != held {
				t.Fatalf("refused delta changed the reader: %d ids, want %d", r.Len(), held)
			}
			for _, n := range roots {
				m.Deref(n)
			}
			r.Release()
			if live := m.GC(); live != 2 {
				t.Fatalf("%d nodes live after release, want the 2 terminals", live)
			}
		})
	}
}

// TestFullReadResetsCollectionPoint: the nodes a full dump builds are a
// replica's starting state, so MaybeGC measures from the end of the
// read. A snapshot filling more than 3/4 of the table is not collected
// at the first offer after a small query, and is once more than half
// the slots free after the read have been produced since.
func TestFullReadResetsCollectionPoint(t *testing.T) {
	// Levels 0 and 1 stay free for the nodes produced after the read;
	// the dumped minterms live on levels 2..11.
	src := New(1<<12, 1<<8)
	src.AddVars(12)
	var roots []Node
	for v := 0; src.LiveNodes() < 820; v++ {
		c := True
		for l := int32(11); l >= 2; l-- {
			if (v*7919)>>(l-2)&1 == 1 {
				c = src.makeNode(l, False, c)
			} else {
				c = src.makeNode(l, c, False)
			}
		}
		roots = append(roots, src.Ref(c))
	}
	var buf bytes.Buffer
	if err := src.WriteDAG(&buf, roots); err != nil {
		t.Fatal(err)
	}
	m := New(1<<10, 1<<8)
	m.AddVars(12)
	got, err := m.NewDAGReader().Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m.LiveNodes()*4 <= len(m.nodes)*3 {
		t.Fatalf("snapshot fills %d of %d slots; the test needs more than 3/4", m.LiveNodes(), len(m.nodes))
	}
	free := m.freeNum
	next := 0
	produce := func(n int) {
		for ; n > 0; n-- {
			for next/len(got) == next%len(got) {
				next++
			}
			m.makeNode(0, got[next/len(got)], got[next%len(got)])
			next++
		}
	}
	produce(10)
	m.MaybeGC()
	if gcs := m.Stats().GCs; gcs != 0 {
		t.Fatalf("%d collections after a 10-node query on a fresh replica; want 0", gcs)
	}
	produce(free/2 - 10)
	m.MaybeGC()
	if gcs := m.Stats().GCs; gcs != 0 {
		t.Fatalf("%d collections at half the %d free slots produced; want 0", gcs, free)
	}
	produce(1)
	m.MaybeGC()
	if gcs := m.Stats().GCs; gcs != 1 {
		t.Fatalf("%d collections past half the %d free slots produced; want 1", gcs, free)
	}
}
