package bdd

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"bddbddb/internal/obs"
)

// checkKernel verifies the node table against its hash-cons contract:
// every live node is found again by its own (level, low, high) key. That
// also rules out two live nodes sharing a key, since a lookup returns
// one node per key and the other would not be found. A lookup that
// misses would allocate, so it also checks that no node was produced.
func checkKernel(t *testing.T, m *Manager, step int) {
	t.Helper()
	produced := m.stats.Produced
	for i := Node(2); i < Node(len(m.nodes)); i++ {
		nd := &m.nodes[i]
		if nd.low == freeMark {
			continue
		}
		if got := m.makeNode(nd.level(), nd.low, nd.high); got != i {
			t.Fatalf("step %d: node %d (level %d, low %d, high %d) not found by its key (got %d)",
				step, i, nd.level(), nd.low, nd.high, got)
		}
	}
	if m.stats.Produced != produced {
		t.Fatalf("step %d: key lookups produced %d nodes", step, m.stats.Produced-produced)
	}
}

// dagBytes is WriteDAG's dump of roots. Dumps number nodes by a walk
// from the roots, so two managers holding the same functions write the
// same bytes whatever their node indices.
func dagBytes(t *testing.T, m *Manager, roots []Node) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.WriteDAG(&buf, roots); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// churnPair runs one random operation sequence on two managers: m
// starts at the minimum table size so grow fires inside makeNode, and
// collects often; ref is a fresh manager sized never to grow or
// collect. The managers hold the same functions in the same pool slots.
type churnPair struct {
	m, ref        *Manager
	pool, refPool []Node
	pair, refPair *Pair
	vs, refVS     Node
	nvars         int32
	rng           *rand.Rand
	gcs           int
}

func newChurnPair(seed int64) *churnPair {
	const nvars = 20
	c := &churnPair{m: New(1<<10, 1<<8), ref: New(1<<19, 1<<12), nvars: nvars, rng: rand.New(rand.NewSource(seed))}
	for _, mm := range []*Manager{c.m, c.ref} {
		mm.AddVars(nvars)
	}
	// Swap the two halves of the order: a permutation exercises
	// correctify's reordering paths.
	c.pair, c.refPair = c.m.NewPair(), c.ref.NewPair()
	for v := int32(0); v < nvars/2; v++ {
		for _, p := range []*Pair{c.pair, c.refPair} {
			p.Set(v, v+nvars/2)
			p.Set(v+nvars/2, v)
		}
	}
	levels := []int32{1, 4, 6, 9, 13}
	c.vs, c.refVS = c.m.MakeSet(levels), c.ref.MakeSet(levels)
	return c
}

// dnf returns the same random disjunction of cubes in both managers.
func (c *churnPair) dnf() (Node, Node) {
	a, b := c.m.Ref(False), c.ref.Ref(False)
	for k := 0; k < 4; k++ {
		x, y := c.m.Ref(True), c.ref.Ref(True)
		for l := 0; l < 5; l++ {
			v := int32(c.rng.Intn(int(c.nvars)))
			pos := c.rng.Intn(2) == 0
			x, y = c.apply2(x, y, func(mm *Manager, f Node) Node {
				lit := mm.NVar(v)
				if pos {
					lit = mm.Var(v)
				}
				defer mm.Deref(lit)
				return mm.And(f, lit)
			})
		}
		a, b = c.apply2(a, b, func(mm *Manager, f Node) Node {
			if mm == c.m {
				return mm.Or(f, x)
			}
			return mm.Or(f, y)
		})
		c.m.Deref(x)
		c.ref.Deref(y)
	}
	return a, b
}

// apply2 applies f to x in m and y in ref, releasing x and y.
func (c *churnPair) apply2(x, y Node, f func(*Manager, Node) Node) (Node, Node) {
	rx, ry := f(c.m, x), f(c.ref, y)
	c.m.Deref(x)
	c.ref.Deref(y)
	return rx, ry
}

func (c *churnPair) pick() int { return c.rng.Intn(len(c.pool)) }

// step performs one random operation and adds its result to the pool,
// occasionally releases pool entries, and sometimes collects m.
func (c *churnPair) step() {
	if len(c.pool) < 4 {
		a, b := c.dnf()
		c.pool, c.refPool = append(c.pool, a), append(c.refPool, b)
		return
	}
	i, j, k := c.pick(), c.pick(), c.pick()
	op := c.rng.Intn(9)
	var a, b Node
	m, r := c.m, c.ref
	switch op {
	case 0:
		a, b = m.And(c.pool[i], c.pool[j]), r.And(c.refPool[i], c.refPool[j])
	case 1:
		a, b = m.Or(c.pool[i], c.pool[j]), r.Or(c.refPool[i], c.refPool[j])
	case 2:
		a, b = m.Xor(c.pool[i], c.pool[j]), r.Xor(c.refPool[i], c.refPool[j])
	case 3:
		a, b = m.Diff(c.pool[i], c.pool[j]), r.Diff(c.refPool[i], c.refPool[j])
	case 4:
		a, b = m.Not(c.pool[i]), r.Not(c.refPool[i])
	case 5:
		a, b = m.ITE(c.pool[i], c.pool[j], c.pool[k]), r.ITE(c.refPool[i], c.refPool[j], c.refPool[k])
	case 6:
		a, b = m.Exist(c.pool[i], c.vs), r.Exist(c.refPool[i], c.refVS)
	case 7:
		a, b = m.AndExist(c.pool[i], c.pool[j], c.vs), r.AndExist(c.refPool[i], c.refPool[j], c.refVS)
	case 8:
		a, b = m.Replace(c.pool[i], c.pair), r.Replace(c.refPool[i], c.refPair)
	}
	c.pool, c.refPool = append(c.pool, a), append(c.refPool, b)
	for len(c.pool) > 24 || (len(c.pool) > 4 && c.rng.Intn(3) == 0) {
		x := c.pick()
		m.Deref(c.pool[x])
		r.Deref(c.refPool[x])
		last := len(c.pool) - 1
		c.pool[x], c.refPool[x] = c.pool[last], c.refPool[last]
		c.pool, c.refPool = c.pool[:last], c.refPool[:last]
	}
	if c.rng.Intn(7) == 0 {
		m.GC()
		c.gcs++
	}
	if c.rng.Intn(4) == 0 {
		// Fresh disjunctions keep the pool's functions varied.
		a, b := c.dnf()
		c.pool, c.refPool = append(c.pool, a), append(c.refPool, b)
	}
}

func TestKernelInvariantsUnderChurn(t *testing.T) {
	grows := int64(0)
	for seed := int64(1); seed <= 4; seed++ {
		c := newChurnPair(seed)
		for s := 0; s < 220; s++ {
			c.step()
			checkKernel(t, c.m, s)
			if got, want := dagBytes(t, c.m, c.pool), dagBytes(t, c.ref, c.refPool); !bytes.Equal(got, want) {
				t.Fatalf("seed %d step %d: DAG dump differs from the fresh manager's (%d vs %d bytes)", seed, s, len(got), len(want))
			}
		}
		if g := c.ref.Stats().Grows; g != 0 {
			t.Fatalf("seed %d: reference manager grew %d times; it must hold everything in its first table", seed, g)
		}
		grows += c.m.Stats().Grows
		if c.gcs == 0 {
			t.Fatalf("seed %d: no GC ran", seed)
		}
	}
	// Each grow rebuilds the table in the middle of a makeNode call; a
	// run that never grew would not exercise that path.
	if grows < 12 {
		t.Fatalf("only %d grows across all seeds", grows)
	}
}

func TestRefSaturationKeepsNodeLive(t *testing.T) {
	m := New(0, 0)
	m.AddVars(4)
	a, b := m.Var(0), m.Var(3)
	x := m.And(a, b)
	y := m.Or(a, b)
	m.Deref(a)
	m.Deref(b)
	for i := 0; i < refMax+500; i++ {
		m.Ref(x)
	}
	if got := m.nodes[x].ref(); got != refMax {
		t.Fatalf("ref count %d after saturating, want %d", got, refMax)
	}
	// Releasing every reference, and more, leaves a saturated count
	// alone: no panic, and the node survives collection.
	for i := 0; i < refMax+600; i++ {
		m.Deref(x)
	}
	m.Deref(y)
	m.GC()
	if m.nodes[x].low == freeMark {
		t.Fatal("saturated node collected")
	}
	assign := []bool{true, false, false, true}
	if !m.Eval(x, assign) {
		t.Fatal("saturated node corrupted by GC")
	}
	if m.nodes[y].low != freeMark {
		t.Fatal("released node survived GC")
	}
	// The packed level is untouched by the count and the mark.
	if lv := m.Level(x); lv != 0 {
		t.Fatalf("level %d, want 0", lv)
	}
	if z := m.And(m.Var(0), m.Var(3)); z != x {
		t.Fatalf("saturated node not found by its key: %d vs %d", z, x)
	}
}

func TestAddVarsBeyondLevelFieldPanics(t *testing.T) {
	m := New(0, 0)
	m.AddVars(int(terminalLevel) - 1)
	m.AddVars(1) // the last level the field holds
	if m.NumVars() != int(terminalLevel) {
		t.Fatalf("NumVars = %d, want %d", m.NumVars(), terminalLevel)
	}
	v := m.Var(terminalLevel - 1)
	if m.Level(v) != terminalLevel-1 || m.Level(True) <= m.Level(v) {
		t.Fatalf("top level %d sorts wrongly against terminal level %d", m.Level(v), m.Level(True))
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic past the level field's width")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "level field") {
			t.Fatalf("panic message %q does not name the level field", msg)
		}
	}()
	m.AddVars(1)
}

// TestDAGReadRejectsLevelsPastField feeds levels that a masked level
// field would alias onto valid ones; ReadDAG must return errors.
func TestDAGReadRejectsLevelsPastField(t *testing.T) {
	m := New(0, 0)
	m.AddVars(int(terminalLevel))
	for _, level := range []uint32{uint32(terminalLevel), 1<<levelBits | 3, markBit, 1 << 31, ^uint32(0)} {
		var buf bytes.Buffer
		buf.Write(dagMagic[:])
		for _, w := range []uint32{1, level, 0, 1, 1, 2} {
			binary.Write(&buf, binary.LittleEndian, w)
		}
		roots, err := m.ReadDAG(&buf)
		if err == nil {
			t.Fatalf("level %#x: ReadDAG accepted it (roots %v)", level, roots)
		}
	}
}

func TestGCAllocatesNothing(t *testing.T) {
	m, fs := churnManager(7, 24)
	m.GC() // sizes the reused mark stack
	allocs := testing.AllocsPerRun(20, func() {
		x := m.Xor(fs[0], fs[1])
		m.Deref(x)
		m.GC()
	})
	if allocs != 0 {
		t.Fatalf("GC allocated %v times per collection", allocs)
	}
}

// TestGrowSamplesLiveNodes checks that an arena growth between GCs
// sends a live-node sample, and that it is exact: every slot of the old
// table is live when the arena grows.
func TestGrowSamplesLiveNodes(t *testing.T) {
	m := New(1<<10, 1<<8)
	m.AddVars(20)
	p := obs.NewProgress()
	m.SetTracer(p)
	// Distinct cubes; without a GC their nodes stay in the arena.
	for i := int32(0); m.Stats().Grows == 0; i++ {
		x := m.Ref(True)
		for j := int32(0); j < 12; j++ {
			lv := (i*7 + j*3) % 20
			lit := m.Var(lv)
			if (i>>uint(j))&1 == 0 {
				m.Deref(lit)
				lit = m.NVar(lv)
			}
			nx := m.And(x, lit)
			m.Deref(x)
			m.Deref(lit)
			x = nx
		}
		m.Deref(x)
	}
	if m.Stats().GCs != 0 {
		t.Fatalf("%d GCs ran; the sample must come from the grow", m.Stats().GCs)
	}
	if got := p.Values()["progress.bdd_live_nodes"]; got != 1<<10 {
		t.Errorf("live-node sample after the first grow = %g, want 1024 (the old table size)", got)
	}
	if hb := p.Heartbeat(); !strings.Contains(hb, "live-nodes@gc/grow=1024") {
		t.Errorf("heartbeat: %s", hb)
	}
}

// churnManager builds n random functions over 16 variables in a
// manager large enough not to grow while they are combined.
func churnManager(seed int64, n int) (*Manager, []Node) {
	m := New(1<<16, 1<<10)
	m.AddVars(16)
	rng := rand.New(rand.NewSource(seed))
	fs := make([]Node, n)
	for i := range fs {
		f := m.Ref(False)
		for k := 0; k < 6; k++ {
			c := m.Ref(True)
			for l := 0; l < 4; l++ {
				lit := m.Var(int32(rng.Intn(16)))
				nc := m.And(c, lit)
				m.Deref(c)
				m.Deref(lit)
				c = nc
			}
			nf := m.Or(f, c)
			m.Deref(f)
			m.Deref(c)
			f = nf
		}
		fs[i] = f
	}
	return m, fs
}
