// Package bdd implements reduced ordered binary decision diagrams (ROBDDs)
// in the style of the BuDDy package that backs the paper's JavaBDD library.
//
// A Manager owns an arena of nodes that are hash-consed (two structurally
// equal nodes are the same index), a set of operation caches, and a
// reference-counting garbage collector. Node is an index into the arena;
// the terminals False and True are indices 0 and 1.
//
// Reference discipline: every Node returned by an exported operation is
// referenced on behalf of the caller and must be released with Deref (or
// kept forever). Operations never garbage-collect mid-run; when the arena
// is exhausted it grows. Garbage is reclaimed at the points where the
// higher layers hold no unreferenced nodes (between solver iterations,
// after a served query) by MaybeGC, which decides whether a collection
// is due.
package bdd

import (
	"fmt"
	"time"

	"bddbddb/internal/obs"
	"bddbddb/internal/resilience"
)

// Node is a handle to a BDD node: an index into its Manager's arena.
type Node int32

// Terminal nodes. They are valid in every Manager.
const (
	False Node = 0
	True  Node = 1
)

// A node's first word packs, from the low bit up, its 21-bit level, the
// GC mark bit and a 10-bit saturating reference count: BuDDy's
// refcou/level word. A count that reaches refMax sticks there, and the
// node stays live for good.
const (
	levelBits = 21
	levelMask = 1<<levelBits - 1
	markBit   = 1 << levelBits
	refShift  = levelBits + 1
	refOne    = 1 << refShift
	refMax    = 1<<(32-refShift) - 1
)

// terminalLevel orders terminals below every variable. It is the largest
// value the level field holds, so at most terminalLevel variables fit.
const terminalLevel int32 = levelMask

// node is one arena slot, 12 bytes. A free slot has low == freeMark and
// its high field links the free list.
type node struct {
	word uint32 // level | markBit | ref<<refShift
	low  Node
	high Node
}

func (nd *node) level() int32 { return int32(nd.word & levelMask) }
func (nd *node) ref() uint32  { return nd.word >> refShift }

const freeMark Node = -1

// CacheStats is the hit/miss count of one operation cache.
type CacheStats struct {
	Hits, Misses int64
}

// HitRatio returns hits/(hits+misses), or 0 before any lookup.
func (c CacheStats) HitRatio() float64 {
	total := c.Hits + c.Misses
	if total == 0 {
		return 0
	}
	return float64(c.Hits) / float64(total)
}

// Stats reports cumulative Manager activity, used by the benchmark
// harness to reproduce the paper's Figure 4 memory column (peak live
// BDD nodes). CacheHits/CacheMiss aggregate the five per-operation
// caches, which are also reported individually — the cost model of
// DESIGN.md (and the paper's Section 6.4 tuning loop) is driven by
// exactly these hit ratios.
type Stats struct {
	Produced  int64         // nodes ever allocated from the free list
	GCs       int64         // garbage collections run
	GCTime    time.Duration // total time spent in GC pauses
	PeakLive  int           // maximum live nodes observed at a GC or measurement
	TableSize int           // current arena size in nodes
	Grows     int64         // arena doublings
	CacheHits int64         // totals across all op caches
	CacheMiss int64

	// Per-cache hit/miss counts: binary apply (and/or/diff), not, the
	// quantifier cache (exist), the apply+exist cache (relprod and ite),
	// and replace (rename).
	Apply, Not, Quant, AppEx, Replace CacheStats
}

// Manager owns a universe of BDD nodes over a fixed set of variables.
type Manager struct {
	nodes    []node
	freeList int32
	freeNum  int

	// unique is the hash-cons table: open addressing with linear probing
	// over 2 slots per arena slot, so it is at most half full. A nonzero
	// entry is a live node's index in the bits below uniqFP plus the
	// fingerprint bits of its hash above them. An index needs no offset
	// for emptiness: the terminals 0 and 1 never enter the table.
	unique   []uint32
	uniqMask uint64 // len(unique)-1
	uniqFP   uint32 // fingerprint bits: ^(len(nodes)-1)

	markStack []Node // GC's explicit mark stack, reused across collections

	// gcProduced and gcFree are stats.Produced and freeNum right after
	// the table was created, last collected or last grown: the point
	// MaybeGC measures from.
	gcProduced int64
	gcFree     int

	nvars int32

	applyCache cache3
	notCache   cache1
	quantCache cache3
	appexCache cache4
	replCache  cache2

	domains []*Domain
	varSets map[string]Node // interned varsets by key, kept referenced
	pairID  Node            // replace-cache key allocator, see NewPair

	stats   Stats
	tracer  obs.Tracer
	control *resilience.Controller
}

// New creates a Manager with the given initial arena size (number of
// nodes) and operation-cache size (entries per cache). Both are rounded
// up to powers of two; tiny values are raised to workable minimums.
func New(nodeSize, cacheSize int) *Manager {
	nodeSize = ceilPow2(max(nodeSize, 1<<10))
	cacheSize = ceilPow2(max(cacheSize, 1<<8))
	m := &Manager{varSets: make(map[string]Node)}
	m.applyCache.init(cacheSize)
	m.notCache.init(cacheSize)
	m.quantCache.init(cacheSize)
	m.appexCache.init(cacheSize)
	m.replCache.init(cacheSize)
	m.initTable(nodeSize)
	return m
}

func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

func (m *Manager) initTable(n int) {
	m.nodes = make([]node, n)
	// Terminals.
	m.nodes[0] = node{word: uint32(terminalLevel) | refOne, low: 0, high: 0}
	m.nodes[1] = node{word: uint32(terminalLevel) | refOne, low: 1, high: 1}
	// Free list over the rest.
	m.freeList = -1
	m.freeNum = 0
	for i := n - 1; i >= 2; i-- {
		m.nodes[i].low = freeMark
		m.nodes[i].high = Node(m.freeList)
		m.freeList = int32(i)
		m.freeNum++
	}
	m.rehash()
	m.stats.TableSize = n
	m.markCollectionPoint()
}

// AddVars appends n fresh variables and returns the level of the first.
// Variables are identified by their level: 0 is the topmost.
func (m *Manager) AddVars(n int) int32 {
	if n < 0 {
		panic(fmt.Sprintf("bdd: AddVars with negative count %d (have %d vars)", n, m.nvars))
	}
	if n > int(terminalLevel-m.nvars) {
		panic(fmt.Sprintf("bdd: AddVars(%d) with %d vars exceeds the %d variables a node's %d-bit level field holds",
			n, m.nvars, terminalLevel, levelBits))
	}
	first := m.nvars
	m.nvars += int32(n)
	return first
}

// NumVars returns the number of declared variables.
func (m *Manager) NumVars() int { return int(m.nvars) }

// SetTracer attaches a tracer to the manager. GC pauses become spans,
// arena growth becomes instant events, and live-node counts are
// sampled at every GC and every growth. A nil tracer (the default)
// costs nothing on any path: per-operation work never touches the
// tracer, and the rare events guard with one nil check.
func (m *Manager) SetTracer(t obs.Tracer) { m.tracer = t }

// SetControl attaches a resilience controller. The manager polls it for
// cancellation inside the recursive operations (apply, relprod, rename)
// and enforces its live-node budget at table growth and after every GC —
// the two places the live count actually changes class. A nil controller
// (the default) restores the unchecked behavior. Violations abort by
// panicking with a typed error that resilience.Recover at the public
// entry points converts back into an error return.
func (m *Manager) SetControl(c *resilience.Controller) { m.control = c }

// Stats returns a snapshot of cumulative manager statistics.
func (m *Manager) Stats() Stats {
	s := m.stats
	if live := m.LiveNodes(); live > s.PeakLive {
		s.PeakLive = live
	}
	s.Apply = CacheStats{m.applyCache.hits, m.applyCache.misses}
	s.Not = CacheStats{m.notCache.hits, m.notCache.misses}
	s.Quant = CacheStats{m.quantCache.hits, m.quantCache.misses}
	s.AppEx = CacheStats{m.appexCache.hits, m.appexCache.misses}
	s.Replace = CacheStats{m.replCache.hits, m.replCache.misses}
	for _, c := range []CacheStats{s.Apply, s.Not, s.Quant, s.AppEx, s.Replace} {
		s.CacheHits += c.Hits
		s.CacheMiss += c.Misses
	}
	return s
}

// AddTo publishes the snapshot into a metrics registry under the
// "bdd." prefix — the flat keys the -metrics exporter writes.
func (s Stats) AddTo(reg *obs.Metrics) {
	reg.Set("bdd.produced_nodes", float64(s.Produced))
	reg.Set("bdd.gcs", float64(s.GCs))
	reg.Set("bdd.gc_pause_sec", s.GCTime.Seconds())
	reg.Set("bdd.peak_live_nodes", float64(s.PeakLive))
	reg.Set("bdd.table_size", float64(s.TableSize))
	reg.Set("bdd.grows", float64(s.Grows))
	for _, c := range []struct {
		name string
		cs   CacheStats
	}{
		{"apply", s.Apply}, {"not", s.Not}, {"quant", s.Quant},
		{"appex", s.AppEx}, {"replace", s.Replace},
	} {
		reg.Set("bdd.cache."+c.name+".hits", float64(c.cs.Hits))
		reg.Set("bdd.cache."+c.name+".misses", float64(c.cs.Misses))
		reg.Set("bdd.cache."+c.name+".hit_ratio", c.cs.HitRatio())
	}
}

// LiveNodes counts nodes currently allocated (not on the free list),
// including the two terminals.
func (m *Manager) LiveNodes() int { return len(m.nodes) - m.freeNum }

// ProducedNodes returns the cumulative count of nodes ever allocated —
// an O(1) read of one counter. Deltas of this across an operation
// measure the nodes that operation materialized, which is the cheap
// proxy for per-op result size (an exact result size would need an
// O(result) BDD walk).
func (m *Manager) ProducedNodes() int64 { return m.stats.Produced }

// notePeak records the current live-node count into PeakLive.
func (m *Manager) notePeak() {
	if live := m.LiveNodes(); live > m.stats.PeakLive {
		m.stats.PeakLive = live
	}
}

func (m *Manager) level(n Node) int32 { return m.nodes[n].level() }

// Level returns the variable level of node n, or a value >= NumVars()
// for terminals.
func (m *Manager) Level(n Node) int32 { return m.nodes[n].level() }

// IsTerminal reports whether n is False or True.
func (m *Manager) IsTerminal(n Node) bool { return n <= 1 }

// Ref increments n's external reference count and returns n. The count
// saturates at refMax; a saturated node is never collected.
func (m *Manager) Ref(n Node) Node {
	if nd := &m.nodes[n]; nd.ref() != refMax {
		nd.word += refOne
	}
	return n
}

// Deref decrements n's external reference count. The node (and any
// children reachable only through it) becomes collectible when the
// count reaches zero. A saturated count stays saturated.
func (m *Manager) Deref(n Node) {
	nd := &m.nodes[n]
	switch nd.ref() {
	case 0:
		panic(fmt.Sprintf("bdd: Deref of unreferenced node %d", n))
	case refMax:
		return
	}
	nd.word -= refOne
}

// nodeHash hashes a node's key. Its low bits pick the probe start in the
// unique table; its high 32 bits supply the fingerprint.
func nodeHash(level int32, low, high Node) uint64 {
	h := uint64(level)*0x9e3779b97f4a7c15 ^ uint64(low)*0xbf58476d1ce4e5b9 ^ uint64(high)*0x94d049bb133111eb
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return h
}

// makeNode returns the canonical node (level, low, high), applying the
// ROBDD reduction rules. It is the only node allocator.
func (m *Manager) makeNode(level int32, low, high Node) Node {
	if low == high {
		return low
	}
	if level >= m.nvars || level < 0 {
		panic(fmt.Sprintf("bdd: makeNode level %d out of range [0,%d)", level, m.nvars))
	}
	if ll, lh := m.nodes[low].level(), m.nodes[high].level(); ll <= level || lh <= level {
		panic(fmt.Sprintf("bdd: makeNode order violation: parent level %d, children at levels %d (low) and %d (high)",
			level, ll, lh))
	}
	// Probe until the node or an empty slot turns up. A slot whose
	// fingerprint differs is skipped without touching the arena.
	h := nodeHash(level, low, high)
	fp := uint32(h>>32) & m.uniqFP
	s := h & m.uniqMask
	for e := m.unique[s]; e != 0; e = m.unique[s] {
		if e&m.uniqFP == fp {
			i := e &^ m.uniqFP
			if nd := &m.nodes[i]; nd.low == low && nd.high == high && nd.level() == level {
				return Node(i)
			}
		}
		s = (s + 1) & m.uniqMask
	}
	if m.freeList == -1 {
		// grow rebuilds the table at twice the size, which moves the
		// empty slot and narrows the fingerprint: probe the new table.
		m.grow()
		return m.makeNode(level, low, high)
	}
	i := m.freeList
	m.freeList = int32(m.nodes[i].high)
	m.freeNum--
	m.stats.Produced++
	m.nodes[i] = node{word: uint32(level), low: low, high: high}
	m.unique[s] = fp | uint32(i)
	return Node(i)
}

// rehash rebuilds the unique table for the current arena size and
// enters every live node in it.
func (m *Manager) rehash() {
	if n := 2 * len(m.nodes); len(m.unique) != n {
		m.unique = make([]uint32, n)
	} else {
		clear(m.unique)
	}
	m.uniqMask = uint64(len(m.unique) - 1)
	m.uniqFP = ^uint32(len(m.nodes) - 1)
	for i := 2; i < len(m.nodes); i++ {
		nd := &m.nodes[i]
		if nd.low == freeMark {
			continue
		}
		h := nodeHash(nd.level(), nd.low, nd.high)
		s := h & m.uniqMask
		for m.unique[s] != 0 {
			s = (s + 1) & m.uniqMask
		}
		m.unique[s] = uint32(h>>32)&m.uniqFP | uint32(i)
	}
}

// grow doubles the arena and rebuilds the unique table. Node indices
// are stable across growth, so operation caches stay valid.
//
// This is also the node-budget enforcement point: grow only runs when
// every slot is live, so the live count here is the table size, and
// refusing to grow caps live nodes at one doubling past the budget.
func (m *Manager) grow() {
	resilience.FaultPoint(resilience.FaultBDDGrow)
	m.control.CheckNodes(m.LiveNodes())
	old := len(m.nodes)
	m.stats.Grows++
	if t := m.tracer; t != nil {
		t.Instant("bdd.grow", obs.A("from", old), obs.A("to", old*2))
		// Every slot is live here, so the old size is the exact count.
		t.Counter("bdd.live_nodes", map[string]float64{
			"live":  float64(old),
			"table": float64(old * 2),
		})
	}
	nn := make([]node, old*2)
	copy(nn, m.nodes)
	m.nodes = nn
	// Free list over the new half plus any previously free slots.
	m.freeList = -1
	m.freeNum = 0
	for i := len(m.nodes) - 1; i >= 2; i-- {
		if i >= old || m.nodes[i].low == freeMark {
			m.nodes[i].low = freeMark
			m.nodes[i].high = Node(m.freeList)
			m.freeList = int32(i)
			m.freeNum++
		}
	}
	m.rehash()
	m.stats.TableSize = len(m.nodes)
	m.markCollectionPoint()
}

// MaybeGC is the one collection policy: callers offer a collection
// whenever they hold no unreferenced nodes, and MaybeGC collects only
// when both
//   - more than 3/4 of the table's slots are live, and
//   - the nodes produced since the last collection or growth exceed
//     half the slots that were free right after it.
//
// The first condition leaves a roomy table alone. The second keeps a
// table mostly filled by nodes that always survive (a serving replica's
// frozen snapshot roots, its dump reader's ids and its query memo) from
// being collected at every check while reclaiming almost nothing: it
// waits until enough has been produced since then for a collection to
// be worth its pause.
func (m *Manager) MaybeGC() {
	if m.LiveNodes()*4 > len(m.nodes)*3 && m.stats.Produced-m.gcProduced > int64(m.gcFree/2) {
		m.GC()
	}
}

// markCollectionPoint records the point MaybeGC measures from.
func (m *Manager) markCollectionPoint() {
	m.gcProduced = m.stats.Produced
	m.gcFree = m.freeNum
}

// GC reclaims all nodes not reachable from externally referenced nodes,
// clears the operation caches, and returns the number of live nodes that
// survived. Callers must not hold unreferenced Nodes across a GC.
func (m *Manager) GC() int {
	m.notePeak()
	m.stats.GCs++
	liveBefore := m.LiveNodes()
	start := time.Now()
	if t := m.tracer; t != nil {
		t.Begin("bdd.gc", obs.A("live_before", liveBefore))
	}
	// Mark phase: depth first from every externally referenced node, on
	// a stack that holds at most one pending child per level. Terminals
	// are never marked.
	stack := m.markStack[:0]
	for i := 2; i < len(m.nodes); i++ {
		nd := &m.nodes[i]
		if nd.low == freeMark || nd.ref() == 0 || nd.word&markBit != 0 {
			continue
		}
		nd.word |= markBit
		stack = append(stack, Node(i))
		for len(stack) > 0 {
			n := &m.nodes[stack[len(stack)-1]]
			stack = stack[:len(stack)-1]
			for _, c := range [2]Node{n.low, n.high} {
				if cn := &m.nodes[c]; c > 1 && cn.word&markBit == 0 {
					cn.word |= markBit
					stack = append(stack, c)
				}
			}
		}
	}
	m.markStack = stack
	// Sweep: clear the marks, rebuild the free list, then the table.
	m.freeList = -1
	m.freeNum = 0
	live := 0
	for i := len(m.nodes) - 1; i >= 2; i-- {
		nd := &m.nodes[i]
		if nd.word&markBit != 0 {
			nd.word &^= markBit
			live++
			continue
		}
		nd.low = freeMark
		nd.high = Node(m.freeList)
		m.freeList = int32(i)
		m.freeNum++
	}
	m.rehash()
	m.clearCaches()
	m.markCollectionPoint()
	m.stats.GCTime += time.Since(start)
	if t := m.tracer; t != nil {
		t.End(obs.A("live_after", live+2))
		t.Counter("bdd.live_nodes", map[string]float64{
			"live":  float64(live + 2),
			"table": float64(len(m.nodes)),
		})
	}
	// A collection that cannot get under the budget means the referenced
	// state alone exceeds it: stop here rather than thrash GC/grow.
	m.control.CheckNodes(live + 2)
	return live + 2
}

func (m *Manager) clearCaches() {
	m.applyCache.clear()
	m.notCache.clear()
	m.quantCache.clear()
	m.appexCache.clear()
	m.replCache.clear()
}

// Var returns the BDD for the single variable at the given level
// (the function that is true iff that variable is 1).
func (m *Manager) Var(level int32) Node {
	return m.Ref(m.makeNode(level, False, True))
}

// NVar returns the BDD for the negation of the variable at level.
func (m *Manager) NVar(level int32) Node {
	return m.Ref(m.makeNode(level, True, False))
}

// Eval evaluates the function rooted at n under the given assignment,
// indexed by level. Levels beyond len(assignment) must not occur in n's
// support. This is the brute-force oracle used by the test suite.
func (m *Manager) Eval(n Node, assignment []bool) bool {
	for n > 1 {
		lv := m.nodes[n].level()
		if int(lv) >= len(assignment) {
			panic(fmt.Sprintf("bdd: Eval assignment has %d values but node depends on level %d", len(assignment), lv))
		}
		if assignment[lv] {
			n = m.nodes[n].high
		} else {
			n = m.nodes[n].low
		}
	}
	return n == True
}

// NodeCount returns the number of distinct nodes in the DAG rooted at n,
// excluding terminals.
func (m *Manager) NodeCount(n Node) int {
	seen := make(map[Node]bool)
	var walk func(Node)
	count := 0
	walk = func(x Node) {
		if x <= 1 || seen[x] {
			return
		}
		seen[x] = true
		count++
		walk(m.nodes[x].low)
		walk(m.nodes[x].high)
	}
	walk(n)
	return count
}

// Support returns the sorted list of variable levels the function
// rooted at n depends on.
func (m *Manager) Support(n Node) []int32 {
	seen := make(map[Node]bool)
	levels := make(map[int32]bool)
	var walk func(Node)
	walk = func(x Node) {
		if x <= 1 || seen[x] {
			return
		}
		seen[x] = true
		levels[m.nodes[x].level()] = true
		walk(m.nodes[x].low)
		walk(m.nodes[x].high)
	}
	walk(n)
	out := make([]int32, 0, len(levels))
	for lv := range levels {
		out = append(out, lv)
	}
	sortInt32(out)
	return out
}

func sortInt32(s []int32) {
	// Insertion sort is fine for the small level lists we handle here.
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j-1] > s[j]; j-- {
			s[j-1], s[j] = s[j], s[j-1]
		}
	}
}
