// Package serve is the query-serving subsystem: it freezes a solved
// Datalog solver's relations into an immutable snapshot, hydrates N
// independent replicas of that snapshot (each with its own BDD
// manager — the manager's unique table and op caches are
// single-threaded by design, so concurrency comes from replication,
// not locks), and serves interactive queries over HTTP/JSON with
// per-request budgets, admission control, and an LRU result cache.
//
// This is the paper's Section 5 turned into a daemon: the expensive
// context-sensitive solve happens once; whoPointsTo-style queries are
// then cheap scans of the materialized relations.
package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"bddbddb/internal/bdd"
	"bddbddb/internal/datalog"
	"bddbddb/internal/rel"
)

// Snapshot is the immutable, serialized form of a solved relation set:
// one shared-structure BDD dump (bdd.WriteDAG) of every relation root
// plus the metadata needed to rebuild an identical universe — domain
// sizes and element names, the finalized block order (levels are only
// meaningful under the identical variable order), per-domain primary
// instance counts, and each relation's schema with the physical
// instance index of every attribute.
type Snapshot struct {
	domains    []domainMeta
	blockOrder []string
	relations  []relMeta
	dag        []byte
	nodeCount  int
}

type domainMeta struct {
	name      string
	size      uint64
	primary   int
	elemNames []string
}

type relMeta struct {
	name  string
	kind  datalog.RelKind
	attrs []attrMeta
}

type attrMeta struct {
	name string
	dom  string
	inst int
}

// NewSnapshot captures a solved solver's declared relations. The
// solver must not mutate them afterwards (the daemon solves, snapshots,
// and never touches the origin solver again).
func NewSnapshot(s *datalog.Solver) (*Snapshot, error) {
	u := s.Universe()
	sn := &Snapshot{blockOrder: u.BlockOrder()}
	for _, d := range u.Domains() {
		sn.domains = append(sn.domains, domainMeta{
			name:      d.Name,
			size:      d.Size,
			primary:   u.PrimaryInstances(d.Name),
			elemNames: d.ElemNames(),
		})
	}
	var roots []bdd.Node
	for _, rd := range s.RelationDecls() {
		r := s.Relation(rd.Name)
		rm := relMeta{name: rd.Name, kind: rd.Kind}
		for _, a := range r.Attrs() {
			inst := a.Dom.InstanceIndex(a.Phys)
			if inst < 0 {
				return nil, fmt.Errorf("serve: relation %s attribute %s bound outside its domain's instances", rd.Name, a.Name)
			}
			rm.attrs = append(rm.attrs, attrMeta{name: a.Name, dom: a.Dom.Name, inst: inst})
		}
		sn.relations = append(sn.relations, rm)
		roots = append(roots, r.Root())
	}
	var buf bytes.Buffer
	if err := u.M.WriteDAG(&buf, roots); err != nil {
		return nil, err
	}
	sn.dag = buf.Bytes()
	// 12 bytes per node record; used to size replica node tables so
	// hydration doesn't start with a cascade of grows.
	sn.nodeCount = (len(sn.dag) - 8 - 4 - 4 - 4*len(roots)) / 12
	return sn, nil
}

// Bytes returns the size of the serialized DAG.
func (sn *Snapshot) Bytes() int { return len(sn.dag) }

// Fingerprint identifies the snapshot's contents: the first 12 hex
// digits of the SHA-256 of the serialized relation DAG. /healthz and
// the metrics exposition report it, so an operator can tell whether
// two replicas (or a daemon and a BENCH file) answer from the same
// solved state.
func (sn *Snapshot) Fingerprint() string {
	sum := sha256.Sum256(sn.dag)
	return hex.EncodeToString(sum[:])[:12]
}

// Nodes returns the number of distinct BDD nodes in the snapshot.
func (sn *Snapshot) Nodes() int { return sn.nodeCount }

// Replica is one independent hydration of a snapshot: its own BDD
// manager, universe, frozen relations, and a QueryBase ready to
// evaluate queries. A replica is single-threaded; the server gives
// each worker goroutine exclusive ownership of one.
type Replica struct {
	U    *rel.Universe
	Rels map[string]*rel.Relation
	Base *datalog.QueryBase

	// gcProduced is the manager's produced-node count and gcFree its
	// free table slots right after the last collection (or hydration).
	gcProduced int64
	gcFree     int
}

// Hydrate builds a fresh replica. extraInstances adds per-domain
// scratch instances (appended after the main blocks, so the dump's
// levels still line up) that give ad-hoc queries physical headroom
// beyond what the original program's rules needed.
func (sn *Snapshot) Hydrate(extraInstances map[string]int) (*Replica, error) {
	u := rel.NewUniverse()
	for _, dm := range sn.domains {
		d := u.Declare(dm.name, dm.size)
		if dm.elemNames != nil {
			d.SetElemNames(dm.elemNames)
		}
		u.EnsureInstances(dm.name, dm.primary)
	}
	// A quarter of headroom over the snapshot: queries reuse their
	// garbage through MaybeGC, and a query that outgrows the table
	// doubles it.
	nodeSize := 1 << 16
	for nodeSize < sn.nodeCount+sn.nodeCount/4 {
		nodeSize <<= 1
	}
	if err := u.Finalize(rel.FinalizeOptions{
		Order:          sn.blockOrder,
		NodeSize:       nodeSize,
		ExtraInstances: extraInstances,
	}); err != nil {
		return nil, err
	}
	roots, err := u.M.ReadDAG(bytes.NewReader(sn.dag))
	if err != nil {
		return nil, err
	}
	rep := &Replica{U: u, Rels: make(map[string]*rel.Relation, len(sn.relations))}
	var ordered []*rel.Relation
	for i, rm := range sn.relations {
		attrs := make([]rel.Attr, len(rm.attrs))
		for j, am := range rm.attrs {
			attrs[j] = u.A(am.name, am.dom, am.inst)
		}
		r := u.NewRelationFromBDD(rm.name, roots[i], attrs...)
		r.Freeze()
		rep.Rels[rm.name] = r
		ordered = append(ordered, r)
	}
	rep.Base = datalog.NewQueryBase(u, ordered)
	rep.noteCollected()
	return rep, nil
}

// MaybeGC collects the replica's manager once the nodes allocated
// since the last collection exceed half the free space that collection
// left. The frozen snapshot roots and the query base's memo entries
// are referenced and always survive. A rule on the live count alone
// ("live > half the table") would collect at every check once the
// snapshot and the memo fill most of the table, reclaiming little.
func (r *Replica) MaybeGC() {
	if r.U.M.ProducedNodes()-r.gcProduced <= int64(r.gcFree/2) {
		return
	}
	r.U.M.GC()
	r.noteCollected()
}

// noteCollected records the point MaybeGC measures from.
func (r *Replica) noteCollected() {
	m := r.U.M
	r.gcProduced = m.ProducedNodes()
	r.gcFree = m.Stats().TableSize - m.LiveNodes()
}
