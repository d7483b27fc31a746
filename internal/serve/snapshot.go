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
	"fmt"
	"slices"

	"bddbddb/internal/bdd"
	"bddbddb/internal/datalog"
	"bddbddb/internal/rel"
)

// Snapshot is the immutable description of one generation's relation
// set: the metadata needed to rebuild an identical universe — domain
// sizes and element names, the finalized block order (levels are only
// meaningful under the identical variable order), per-domain primary
// instance counts, and each relation's schema with the physical
// instance index of every attribute — plus, for a snapshot taken in
// full, one shared-structure BDD dump (bdd.WriteDAG) of every relation
// root.
//
// The dump is only needed to hydrate replicas: the server releases it
// once a generation's pool is hydrated, keeping the size, node count
// and fingerprint computed when the snapshot was taken. A generation
// published by patching the serving replicas (see Snapshot.next) has no
// dump of its own; its Bytes and Nodes keep reporting the last full
// dump, the one its replicas were hydrated from.
type Snapshot struct {
	domains     []domainMeta
	blockOrder  []string
	relations   []relMeta
	dag         []byte
	size        int
	nodeCount   int
	fingerprint string
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
	w := s.Universe().M.NewDAGWriter()
	defer w.Release()
	return fullSnapshot(s, w)
}

// fullSnapshot is NewSnapshot through w, which must not have written
// yet. w keeps the dump's ids, so later patches can continue them.
func fullSnapshot(s *datalog.Solver, w *bdd.DAGWriter) (*Snapshot, error) {
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
	for _, rd := range s.RelationDecls() {
		rm := relMeta{name: rd.Name, kind: rd.Kind}
		for _, a := range s.Relation(rd.Name).Attrs() {
			inst := a.Dom.InstanceIndex(a.Phys)
			if inst < 0 {
				return nil, fmt.Errorf("serve: relation %s attribute %s bound outside its domain's instances", rd.Name, a.Name)
			}
			rm.attrs = append(rm.attrs, attrMeta{name: a.Name, dom: a.Dom.Name, inst: inst})
		}
		sn.relations = append(sn.relations, rm)
	}
	roots := relationRoots(s)
	var buf bytes.Buffer
	n, err := w.Write(&buf, roots)
	if err != nil {
		return nil, err
	}
	sn.dag = buf.Bytes()
	sn.size = len(sn.dag)
	// Used to size replica node tables so hydration doesn't start with
	// a cascade of grows.
	sn.nodeCount = n
	sn.fingerprint = bdd.Fingerprint(w.RootHashes())
	return sn, nil
}

// relationRoots lists the roots of s's declared relations in
// declaration order, the order of a snapshot's relations.
func relationRoots(s *datalog.Solver) []bdd.Node {
	var roots []bdd.Node
	for _, rd := range s.RelationDecls() {
		roots = append(roots, s.Relation(rd.Name).Root())
	}
	return roots
}

// patch carries one live update from the live solver to the serving
// replicas: a delta dump of the relation roots, continuing the ids of
// the full dump the replicas were hydrated from and of every patch
// since, and the element-name tables the update grew.
type patch struct {
	dag   []byte
	names map[string][]string
	nodes int // node records in dag
}

// next cuts the patch from sn's generation to s's current relations
// through w, the writer of sn's full dump and of every patch since, and
// returns the new generation's snapshot: sn's metadata with the grown
// name tables and the new fingerprint. s must be the solver sn was
// taken from (w is bound to its manager), so its relations and domains
// are sn's, in sn's order.
func (sn *Snapshot) next(s *datalog.Solver, w *bdd.DAGWriter) (*Snapshot, *patch, error) {
	var buf bytes.Buffer
	n, err := w.Write(&buf, relationRoots(s))
	if err != nil {
		return nil, nil, err
	}
	p := &patch{dag: buf.Bytes(), names: make(map[string][]string), nodes: n}
	ns := *sn
	ns.dag = nil
	ns.domains = slices.Clone(sn.domains)
	for i, d := range s.Universe().Domains() {
		dm := &ns.domains[i]
		if names := d.ElemNames(); len(names) != len(dm.elemNames) {
			dm.elemNames = names
			p.names[d.Name] = names
		}
	}
	ns.fingerprint = bdd.Fingerprint(w.RootHashes())
	return &ns, p, nil
}

// Bytes returns the size of the last full serialized DAG: this
// snapshot's own, or for a patched generation the one its replicas
// were hydrated from.
func (sn *Snapshot) Bytes() int { return sn.size }

// Fingerprint identifies the snapshot's contents: bdd.Fingerprint of
// the relation roots' structural hashes, the value the live solver's
// datalog.Solver.ContentFingerprint reports. A patched generation gets
// it from the patch's root hashes, without walking unchanged nodes.
// /healthz and the metrics exposition report it, so an operator can
// tell whether two replicas (or a daemon and a BENCH file) answer from
// the same solved state.
func (sn *Snapshot) Fingerprint() string { return sn.fingerprint }

// release drops the serialized DAG; a later Hydrate fails. The server
// calls it once every replica of the snapshot's pool is hydrated.
func (sn *Snapshot) release() { sn.dag = nil }

// Nodes returns the number of distinct BDD nodes in the last full
// dump (see Bytes).
func (sn *Snapshot) Nodes() int { return sn.nodeCount }

// Replica is one independent hydration of a snapshot: its own BDD
// manager, universe, frozen relations, and a QueryBase ready to
// evaluate queries. A replica is single-threaded; the server gives
// each worker goroutine exclusive ownership of one. A live update
// patches it in place: patch reads the update's delta into the same
// manager and returns a second view of it, holding the new
// generation's relations and QueryBase, beside the one still serving.
type Replica struct {
	U    *rel.Universe
	Rels map[string]*rel.Relation
	Base *datalog.QueryBase

	// dag continues the dump ids of the snapshot and its patches; every
	// view of one replica shares it.
	dag *bdd.DAGReader
}

// Hydrate builds a fresh replica. extraInstances adds per-domain
// scratch instances (appended after the main blocks, so the dump's
// levels still line up) that give ad-hoc queries physical headroom
// beyond what the original program's rules needed.
func (sn *Snapshot) Hydrate(extraInstances map[string]int) (*Replica, error) {
	if sn.dag == nil {
		return nil, fmt.Errorf("serve: snapshot %s was released after its replicas were hydrated", sn.fingerprint)
	}
	u := rel.NewUniverse()
	for _, dm := range sn.domains {
		d := u.Declare(dm.name, dm.size)
		if dm.elemNames != nil {
			d.SetElemNames(dm.elemNames)
		}
		u.EnsureInstances(dm.name, dm.primary)
	}
	// A quarter of headroom over the snapshot: queries reuse their
	// garbage through the manager's MaybeGC, and a query that outgrows
	// the table doubles it.
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
	dag := u.M.NewDAGReader()
	roots, err := dag.Read(bytes.NewReader(sn.dag))
	if err != nil {
		return nil, err
	}
	return newView(u, dag, sn.relations, roots), nil
}

// newView binds referenced roots, one per relation of rels, as a
// replica view over u.
func newView(u *rel.Universe, dag *bdd.DAGReader, rels []relMeta, roots []bdd.Node) *Replica {
	rep := &Replica{U: u, Rels: make(map[string]*rel.Relation, len(rels)), dag: dag}
	ordered := make([]*rel.Relation, 0, len(rels))
	for i, rm := range rels {
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
	return rep
}

// patch applies p, cut for generation sn, to the replica's manager and
// returns that generation's view. r keeps serving its own generation
// until it is released. A failed read leaves r as it was, but the
// replica cannot take another patch (the writer drops its ids after
// any failed publish).
func (r *Replica) patch(sn *Snapshot, p *patch) (*Replica, error) {
	for name, names := range p.names {
		r.U.Domain(name).SetElemNames(names)
	}
	roots, err := r.dag.Read(bytes.NewReader(p.dag))
	if err != nil {
		return nil, err
	}
	return newView(r.U, r.dag, sn.relations, roots), nil
}

// release drops the view's relation roots and its query memo; the
// nodes only they held become garbage for the manager's next collection.
func (r *Replica) release() {
	for _, rl := range r.Rels {
		r.U.M.Deref(rl.Root())
	}
	r.Base.Release()
}
