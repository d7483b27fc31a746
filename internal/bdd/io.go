package bdd

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"bddbddb/internal/resilience"
)

// This file serializes BDD DAGs — the physical layer of the serving
// snapshot, the incremental solver's relation copies and the solver's
// content fingerprint. A dump holds the union of the DAGs under a list
// of roots, with structure shared exactly as in memory, so writing
// every relation of a solve costs one pass over the distinct nodes.
//
// Format (all integers little-endian):
//
//	magic   "BDDDAG1\n"
//	uint32  node count N
//	N ×     (int32 level, uint32 low, uint32 high)
//	uint32  root count R
//	R ×     uint32 root
//
// Node references are dump-local ids: 0 and 1 are the terminals, id
// i >= 2 is the (i-2)th node record. Records are topologically ordered
// (children precede parents), so a reader can rebuild bottom-up with
// the ordinary hash-consing allocator. Levels are raw variable levels:
// a dump is only meaningful in a manager with the identical variable
// order, which the reader guarantees by rebuilding the writer's layout
// (the snapshot records its domains and block order; the incremental
// copy builds both solvers from one program and options).

var dagMagic = [8]byte{'B', 'D', 'D', 'D', 'A', 'G', '1', '\n'}

// WriteDAG serializes the DAGs rooted at roots.
func (m *Manager) WriteDAG(w io.Writer, roots []Node) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(dagMagic[:]); err != nil {
		return err
	}
	// Postorder walk assigning dump ids with children first. Recursion
	// depth is bounded by the variable count, not the node count.
	ids := map[Node]uint32{False: 0, True: 1}
	var order []Node
	var walk func(n Node)
	walk = func(n Node) {
		if _, done := ids[n]; done {
			return
		}
		nd := m.nodes[n]
		walk(nd.low)
		walk(nd.high)
		ids[n] = uint32(len(order) + 2)
		order = append(order, n)
	}
	for _, r := range roots {
		walk(r)
	}
	var buf [12]byte
	binary.LittleEndian.PutUint32(buf[:4], uint32(len(order)))
	if _, err := bw.Write(buf[:4]); err != nil {
		return err
	}
	for _, n := range order {
		nd := m.nodes[n]
		binary.LittleEndian.PutUint32(buf[0:4], uint32(nd.level()))
		binary.LittleEndian.PutUint32(buf[4:8], ids[nd.low])
		binary.LittleEndian.PutUint32(buf[8:12], ids[nd.high])
		if _, err := bw.Write(buf[:12]); err != nil {
			return err
		}
	}
	binary.LittleEndian.PutUint32(buf[:4], uint32(len(roots)))
	if _, err := bw.Write(buf[:4]); err != nil {
		return err
	}
	for _, r := range roots {
		binary.LittleEndian.PutUint32(buf[:4], ids[r])
		if _, err := bw.Write(buf[:4]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadDAG rebuilds a dump written by WriteDAG and returns its roots,
// each referenced on behalf of the caller. The manager must declare at
// least the variables the dump uses, in the writer's order.
//
// The input is treated as untrusted: node ids, variable levels, and the
// child-before-parent level ordering are all validated before any node
// reaches the allocator, the node table grows incrementally so a
// corrupted count cannot force a huge upfront allocation, and any
// residual panic surfaces as a typed *resilience.InternalError rather
// than unwinding through the caller. A failed read releases the roots
// it had already referenced, so every node it built is reclaimed by
// the next GC.
func (m *Manager) ReadDAG(r io.Reader) (_ []Node, err error) {
	var roots []Node
	defer func() {
		if err != nil {
			for _, n := range roots {
				m.Deref(n)
			}
		}
	}()
	defer resilience.Recover(&err)
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("bdd: dag header: %w", err)
	}
	if magic != dagMagic {
		return nil, fmt.Errorf("bdd: not a BDD dag dump (magic %q)", magic[:])
	}
	var buf [12]byte
	if _, err := io.ReadFull(br, buf[:4]); err != nil {
		return nil, fmt.Errorf("bdd: dag node count: %w", err)
	}
	count := binary.LittleEndian.Uint32(buf[:4])
	// Grow incrementally: a malicious count of 2^32-1 must fail at the
	// first short read, not by preallocating a 16 GiB id table.
	nodes := make([]Node, 2, 2+min(uint32(1<<16), count))
	nodes[0], nodes[1] = False, True
	for i := uint32(0); i < count; i++ {
		if _, err := io.ReadFull(br, buf[:12]); err != nil {
			return nil, fmt.Errorf("bdd: dag node %d: %w", i, err)
		}
		level := int32(binary.LittleEndian.Uint32(buf[0:4]))
		low := binary.LittleEndian.Uint32(buf[4:8])
		high := binary.LittleEndian.Uint32(buf[8:12])
		if low >= i+2 || high >= i+2 {
			return nil, fmt.Errorf("bdd: dag node %d references forward id (low %d, high %d)", i, low, high)
		}
		if level < 0 || level >= m.nvars {
			return nil, fmt.Errorf("bdd: dag node %d level %d outside manager's %d variables", i, level, m.nvars)
		}
		// Enforce the BDD ordering invariant here, with ids and levels in
		// the message, instead of letting makeNode panic on it.
		if ll := m.level(nodes[low]); ll <= level {
			return nil, fmt.Errorf("bdd: dag node %d (level %d) has low child id %d at level %d; children must be below parents", i, level, low, ll)
		}
		if hl := m.level(nodes[high]); hl <= level {
			return nil, fmt.Errorf("bdd: dag node %d (level %d) has high child id %d at level %d; children must be below parents", i, level, high, hl)
		}
		nodes = append(nodes, m.makeNode(level, nodes[low], nodes[high]))
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
		if id >= count+2 {
			return nil, fmt.Errorf("bdd: dag root %d id %d out of range", i, id)
		}
		roots = append(roots, m.Ref(nodes[id]))
	}
	return roots, nil
}
