package bdd

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"

	"bddbddb/internal/resilience"
)

// This file serializes BDD DAGs — the physical layer of the serving
// snapshot and its live-update patches, the incremental solver's
// relation copies and the solver's content fingerprint. A dump holds
// the union of the DAGs under a list of roots, with structure shared
// exactly as in memory, so writing every relation of a solve costs one
// pass over the distinct nodes.
//
// Format (all integers little-endian):
//
//	magic   "BDDDAG1\n"            a full dump, or
//	        "BDDDLT1\n", uint32 B  a delta dump over B ids
//	uint32  node count N
//	N ×     (int32 level, uint32 low, uint32 high)
//	uint32  root count R
//	R ×     uint32 root
//
// Node references are dump ids: 0 and 1 are the terminals, and the
// records take the next ids in order, from 2 in a full dump and from B
// in a delta. A delta continues the ids of the dumps a DAGWriter wrote
// before it (B counts them, terminals included), so its records are
// only the nodes those dumps lacked, and its children and roots may
// name any earlier id. Records are topologically ordered (children
// precede parents), so a reader can rebuild bottom-up with the ordinary
// hash-consing allocator. Levels are raw variable levels: a dump is
// only meaningful in a manager with the identical variable order, which
// the reader guarantees by rebuilding the writer's layout (the snapshot
// records its domains and block order; the incremental copy builds both
// solvers from one program and options).

var (
	dagMagic   = [8]byte{'B', 'D', 'D', 'D', 'A', 'G', '1', '\n'}
	deltaMagic = [8]byte{'B', 'D', 'D', 'D', 'L', 'T', '1', '\n'}
)

// Structural hashes of the terminals. A node's hash mixes its level
// with its children's hashes (structHash).
const (
	falseHash uint64 = 0x243f6a8885a308d3
	trueHash  uint64 = 0x13198a2e03707344
)

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func structHash(level int32, low, high uint64) uint64 {
	return mix64(mix64(low^uint64(level)*0x9e3779b97f4a7c15) ^ high)
}

// DAGWriter writes a sequence of dumps of one manager's DAGs, each
// holding only the nodes the dumps before it lacked: the first is a
// full dump, every later one a delta over the ids issued so far. Ids
// are dense: a slice indexed by Node maps a written node to its id.
// The writer keeps a reference to every root that first reached the
// index through it, so every indexed node stays reachable, its slot is
// never reused, and its id stays bound to one function until Release.
// It also keeps each indexed node's structural hash, which depends on
// the function alone (RootHashes).
//
// A full dump drops the id and hash tables once written, so a writer
// that never writes a delta holds only its roots; the first delta
// rebuilds the tables by walking those roots again, in their order,
// which issues the same ids.
//
// A writer is not safe for concurrent use, and the manager must not be
// collected while Write runs (no operation collects on its own).
type DAGWriter struct {
	m      *Manager
	pin    bool     // reference new roots (false for a one-shot WriteDAG)
	pinned []Node   // referenced roots, in the order they were indexed
	n      int      // ids issued, terminals included
	ids    []uint32 // by Node: dump id, 0 while unwritten
	hashes []uint64 // by dump id: structural hash
	last   []uint64 // structural hashes of the last Write's roots
}

// NewDAGWriter returns an empty writer bound to m. Its first Write is
// a full dump.
func (m *Manager) NewDAGWriter() *DAGWriter { return &DAGWriter{m: m, pin: true, n: 2} }

// Len returns the number of ids issued, terminals included: the base
// count the next delta names.
func (w *DAGWriter) Len() int { return w.n }

// RootHashes returns the structural hashes of the last Write's roots,
// in order, in a slice the next Write overwrites. A node's hash is a function of its level and its
// children's hashes only, so roots that represent the same functions
// under one variable order hash equally in any managers.
func (w *DAGWriter) RootHashes() []uint64 { return w.last }

// RootHashes returns the structural hashes of roots, as a DAGWriter
// would after writing them, without writing a dump.
func (m *Manager) RootHashes(roots []Node) []uint64 {
	w := &DAGWriter{m: m, n: 2}
	w.index(roots, nil)
	out := make([]uint64, len(roots))
	for i, r := range roots {
		out[i] = w.hashes[w.id(r)]
	}
	return out
}

// Fingerprint formats a list of root structural hashes as a content
// fingerprint: the first 12 hex digits of a SHA-256 over them. It
// depends on the roots' functions and order only, so two managers
// with one variable order agree on equal relation lists, however
// their nodes were built or numbered.
func Fingerprint(rootHashes []uint64) string {
	h := sha256.New()
	var buf [8]byte
	for _, rh := range rootHashes {
		binary.LittleEndian.PutUint64(buf[:], rh)
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
}

// Write dumps the DAGs rooted at roots: a full dump if w has written
// nothing yet, otherwise a delta holding the reachable nodes no earlier
// Write covered, plus every root. It returns the number of node
// records written.
func (w *DAGWriter) Write(out io.Writer, roots []Node) (int, error) {
	base := w.n
	if base > 2 && w.ids == nil {
		w.index(w.pinned, nil)
		if w.n != base {
			panic(fmt.Sprintf("bdd: DAGWriter re-indexed %d ids, had issued %d", w.n, base))
		}
	}
	var order []Node
	w.index(roots, &order)
	if w.pin {
		for _, r := range roots {
			if r > True && int(w.ids[r]) >= base {
				w.pinned = append(w.pinned, w.m.Ref(r))
			}
		}
	}
	w.last = w.last[:0]
	for _, r := range roots {
		w.last = append(w.last, w.hashes[w.id(r)])
	}
	if g, ok := out.(interface{ Grow(int) }); ok {
		// The dump's size is known now; growing a buffer once avoids
		// copying it at every doubling.
		g.Grow(8 + 4 + 4 + 12*len(order) + 4 + 4*len(roots))
	}
	bw := bufio.NewWriter(out)
	var buf [12]byte
	if base == 2 {
		bw.Write(dagMagic[:])
	} else {
		bw.Write(deltaMagic[:])
		binary.LittleEndian.PutUint32(buf[:4], uint32(base))
		bw.Write(buf[:4])
	}
	binary.LittleEndian.PutUint32(buf[:4], uint32(len(order)))
	bw.Write(buf[:4])
	for _, n := range order {
		nd := w.m.nodes[n]
		binary.LittleEndian.PutUint32(buf[0:4], uint32(nd.level()))
		binary.LittleEndian.PutUint32(buf[4:8], w.id(nd.low))
		binary.LittleEndian.PutUint32(buf[8:12], w.id(nd.high))
		bw.Write(buf[:12])
	}
	binary.LittleEndian.PutUint32(buf[:4], uint32(len(roots)))
	bw.Write(buf[:4])
	for _, r := range roots {
		binary.LittleEndian.PutUint32(buf[:4], w.id(r))
		bw.Write(buf[:4])
	}
	if base == 2 {
		w.ids, w.hashes = nil, nil
	}
	// A bufio.Writer keeps its first error and reports it here.
	return len(order), bw.Flush()
}

// index issues ids, in postorder with children first, to the nodes
// reachable from roots that have none, and appends them to *order
// when order is not nil. Recursion depth is bounded by the variable
// count, not the node count.
func (w *DAGWriter) index(roots []Node, order *[]Node) {
	m := w.m
	if w.ids == nil {
		w.ids = make([]uint32, len(m.nodes))
		w.hashes = []uint64{falseHash, trueHash}
		w.n = 2
	} else if n := len(m.nodes); len(w.ids) < n {
		w.ids = append(w.ids, make([]uint32, n-len(w.ids))...)
	}
	var walk func(n Node)
	walk = func(n Node) {
		if n <= True || w.ids[n] != 0 {
			return
		}
		nd := m.nodes[n]
		walk(nd.low)
		walk(nd.high)
		w.ids[n] = uint32(w.n)
		w.n++
		w.hashes = append(w.hashes, structHash(nd.level(), w.hashes[w.id(nd.low)], w.hashes[w.id(nd.high)]))
		if order != nil {
			*order = append(*order, n)
		}
	}
	for _, r := range roots {
		walk(r)
	}
}

// id returns n's dump id; n must be a terminal or indexed.
func (w *DAGWriter) id(n Node) uint32 {
	if n <= True {
		return uint32(n)
	}
	return w.ids[n]
}

// Release drops the writer's references; the writer must not be used
// afterwards.
func (w *DAGWriter) Release() {
	for _, r := range w.pinned {
		w.m.Deref(r)
	}
	*w = DAGWriter{m: w.m}
}

// WriteDAG serializes the DAGs rooted at roots as one full dump.
func (m *Manager) WriteDAG(w io.Writer, roots []Node) error {
	_, err := (&DAGWriter{m: m, n: 2}).Write(w, roots)
	return err
}

// DAGReader rebuilds a DAGWriter's sequence of dumps in another
// manager: a full dump first, then deltas, each over exactly the ids
// the reader holds. Its id → Node table keeps every node alive until
// Release, so every id a later delta names is still in the manager:
// the full dump's nodes through references to its roots, and each
// delta's nodes through a reference each (an untrusted delta need not
// make every record reachable from its roots).
//
// Like the writer, the reader drops the table after the full dump and
// rebuilds it at the first delta by walking the dump's roots, which
// issues the writer's ids again. It keeps the dump's id count and an
// order checksum to refuse a dump the walk cannot reproduce: one with
// a record no root reaches, a record that repeats another, or records
// in another order.
type DAGReader struct {
	m     *Manager
	pin   bool
	nodes []Node // by dump id; nil between a full dump and the first delta
	roots []Node // the full dump's roots, referenced
	n     int    // ids held, terminals included
	full  int    // ids of the full dump
	sum   uint64 // orderSum of the full dump's table
}

// NewDAGReader returns an empty reader bound to m. Its first Read must
// be a full dump.
func (m *Manager) NewDAGReader() *DAGReader {
	return &DAGReader{m: m, pin: true, nodes: []Node{False, True}, n: 2}
}

// Len returns the number of ids the reader holds, terminals included.
func (r *DAGReader) Len() int { return r.n }

// Release drops the reader's references; the reader must not be used
// afterwards.
func (r *DAGReader) Release() {
	if r.pin {
		for _, n := range r.roots {
			r.m.Deref(n)
		}
		if r.nodes != nil {
			for _, n := range r.nodes[r.full:] {
				r.m.Deref(n)
			}
		}
	}
	*r = DAGReader{m: r.m}
}

// orderSum is an order-sensitive checksum of a table's nodes.
func orderSum(nodes []Node) uint64 {
	var h uint64
	for _, n := range nodes[2:] {
		h = mix64(h + uint64(n))
	}
	return h
}

// rebuild recovers the full dump's table by walking its roots in order,
// postorder with the low child first, as the writer issued the ids.
func (r *DAGReader) rebuild() error {
	m := r.m
	seen := make([]bool, len(m.nodes))
	nodes := make([]Node, 2, r.full)
	nodes[0], nodes[1] = False, True
	var walk func(n Node)
	walk = func(n Node) {
		if n <= True || seen[n] {
			return
		}
		seen[n] = true
		walk(m.nodes[n].low)
		walk(m.nodes[n].high)
		nodes = append(nodes, n)
	}
	for _, root := range r.roots {
		walk(root)
	}
	if len(nodes) != r.full || orderSum(nodes) != r.sum {
		return fmt.Errorf("bdd: the full dag dump's %d ids do not follow its roots (a walk issues %d); it takes no delta", r.full, len(nodes))
	}
	r.nodes = nodes
	return nil
}

// Read rebuilds one dump and returns its roots, each referenced on
// behalf of the caller. A full dump needs an empty reader; a delta
// must name the reader's Len as its base. The manager must declare at
// least the variables the dump uses, in the writer's order.
//
// The input is treated as untrusted: the base count, node ids,
// variable levels, and the child-before-parent level ordering are all
// validated before any node reaches the allocator, the node table
// grows incrementally so a corrupted count cannot force a huge upfront
// allocation, and any residual panic surfaces as a typed
// *resilience.InternalError rather than unwinding through the caller.
// A failed read leaves the reader as it was and releases the roots it
// had already referenced, so every node it built is reclaimed by the
// next GC.
func (r *DAGReader) Read(in io.Reader) (_ []Node, err error) {
	m := r.m
	base := r.n
	if r.nodes == nil {
		if err := r.rebuild(); err != nil {
			return nil, err
		}
	}
	var roots []Node
	defer func() {
		if err != nil {
			for _, n := range roots {
				m.Deref(n)
			}
			r.nodes = r.nodes[:base]
		}
	}()
	defer resilience.Recover(&err)
	br := bufio.NewReader(in)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("bdd: dag header: %w", err)
	}
	var buf [12]byte
	switch magic {
	case dagMagic:
		if base != 2 {
			return nil, fmt.Errorf("bdd: full dag dump read over %d ids; a reader takes one full dump, then deltas", base)
		}
	case deltaMagic:
		if _, err := io.ReadFull(br, buf[:4]); err != nil {
			return nil, fmt.Errorf("bdd: dag delta base: %w", err)
		}
		if b := binary.LittleEndian.Uint32(buf[:4]); uint64(b) != uint64(base) {
			return nil, fmt.Errorf("bdd: dag delta over base %d read into a table of %d ids", b, base)
		}
	default:
		return nil, fmt.Errorf("bdd: not a BDD dag dump (magic %q)", magic[:])
	}
	if _, err := io.ReadFull(br, buf[:4]); err != nil {
		return nil, fmt.Errorf("bdd: dag node count: %w", err)
	}
	count := binary.LittleEndian.Uint32(buf[:4])
	// Grow incrementally: a malicious count of 2^32-1 must fail at the
	// first short read, not by preallocating a 16 GiB id table.
	if need := base + int(min(uint32(1<<16), count)); cap(r.nodes) < need {
		r.nodes = append(make([]Node, 0, need), r.nodes...)
	}
	for i := uint32(0); i < count; i++ {
		if _, err := io.ReadFull(br, buf[:12]); err != nil {
			return nil, fmt.Errorf("bdd: dag node %d: %w", i, err)
		}
		level := int32(binary.LittleEndian.Uint32(buf[0:4]))
		low := binary.LittleEndian.Uint32(buf[4:8])
		high := binary.LittleEndian.Uint32(buf[8:12])
		if known := uint64(len(r.nodes)); uint64(low) >= known || uint64(high) >= known {
			return nil, fmt.Errorf("bdd: dag node %d references forward id (low %d, high %d)", i, low, high)
		}
		if level < 0 || level >= m.nvars {
			return nil, fmt.Errorf("bdd: dag node %d level %d outside manager's %d variables", i, level, m.nvars)
		}
		// Enforce the BDD ordering invariant here, with ids and levels in
		// the message, instead of letting makeNode panic on it.
		if ll := m.level(r.nodes[low]); ll <= level {
			return nil, fmt.Errorf("bdd: dag node %d (level %d) has low child id %d at level %d; children must be below parents", i, level, low, ll)
		}
		if hl := m.level(r.nodes[high]); hl <= level {
			return nil, fmt.Errorf("bdd: dag node %d (level %d) has high child id %d at level %d; children must be below parents", i, level, high, hl)
		}
		r.nodes = append(r.nodes, m.makeNode(level, r.nodes[low], r.nodes[high]))
	}
	if _, err := io.ReadFull(br, buf[:4]); err != nil {
		return nil, fmt.Errorf("bdd: dag root count: %w", err)
	}
	nroots := binary.LittleEndian.Uint32(buf[:4])
	roots = make([]Node, 0, min(nroots, 1<<16))
	for i := uint32(0); i < nroots; i++ {
		if _, err := io.ReadFull(br, buf[:4]); err != nil {
			return nil, fmt.Errorf("bdd: dag root %d: %w", i, err)
		}
		id := binary.LittleEndian.Uint32(buf[:4])
		if uint64(id) >= uint64(len(r.nodes)) {
			return nil, fmt.Errorf("bdd: dag root %d id %d out of range", i, id)
		}
		roots = append(roots, m.Ref(r.nodes[id]))
	}
	r.n = len(r.nodes)
	if base == 2 {
		// A full dump's nodes are a fresh manager's starting state, not
		// work since its creation: MaybeGC measures from here, so a
		// replica whose snapshot fills most of its table does not collect
		// after its first small query.
		m.markCollectionPoint()
	}
	switch {
	case !r.pin:
	case base == 2:
		for _, root := range roots {
			if root > True {
				r.roots = append(r.roots, m.Ref(root))
			}
		}
		r.full, r.sum, r.nodes = r.n, orderSum(r.nodes), nil
	default:
		for _, n := range r.nodes[base:] {
			m.Ref(n)
		}
	}
	return roots, nil
}

// ReadDAG rebuilds a full dump written by WriteDAG (or a DAGWriter's
// first Write) and returns its roots, each referenced on behalf of the
// caller; no other node it builds is referenced. It validates its input
// as DAGReader.Read does.
func (m *Manager) ReadDAG(r io.Reader) ([]Node, error) {
	return (&DAGReader{m: m, nodes: []Node{False, True}, n: 2}).Read(r)
}
