package datalog

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"sort"
	"strings"

	"bddbddb/internal/bdd"
	"bddbddb/internal/rel"
	"bddbddb/internal/resilience"
)

// Checkpointing saves the solver's relations (and the semi-naive delta
// frontier of the in-progress stratum) at fixpoint-iteration boundaries
// so an aborted run can resume — or be inspected — from the last
// completed iteration. The on-disk format is resilience.Manifest plus
// one shared BDD DAG dump (state.bdd) whose roots are the declared
// relations in declaration order followed by the deltas in sorted-name
// order. Resume is sound because semi-naive evaluation is monotone and
// plan-independent: restarting from any consistent
// (relations, deltas, stratum) triple converges to the same fixpoint
// the uninterrupted run reaches.

// fingerprint identifies the program + options a checkpoint belongs to:
// the variable order, every domain's resolved size, the relation
// schemas, and every rule (facts included — resume skips re-applying
// them). Anything that changes the BDD variable layout or the fixpoint
// changes the fingerprint, and resume refuses the checkpoint.
func (s *Solver) fingerprint() string {
	h := sha256.New()
	fmt.Fprintf(h, "order:%s\n", strings.Join(s.opts.Order, "_"))
	for _, d := range s.prog.Domains {
		size := d.Size
		if o, ok := s.opts.DomainSizes[d.Name]; ok {
			size = o
		}
		fmt.Fprintf(h, "domain:%s=%d\n", d.Name, size)
	}
	for _, rd := range s.prog.Relations {
		fmt.Fprintf(h, "relation:%s(", rd.Name)
		for i, a := range rd.Attrs {
			if i > 0 {
				fmt.Fprint(h, ",")
			}
			fmt.Fprintf(h, "%s:%s", a.Name, a.Domain)
		}
		fmt.Fprint(h, ")\n")
	}
	for _, r := range s.prog.Rules {
		fmt.Fprintf(h, "rule:%s\n", r)
	}
	fmt.Fprintf(h, "noinc:%v\n", s.opts.NoIncrementalization)
	return hex.EncodeToString(h.Sum(nil))
}

// writeCheckpoint persists the solver state that completing iteration
// iter of stratum idx produced. delta holds the semi-naive frontier
// (nil at a stratum boundary, where idx names the next stratum to run
// and iter is 0). The fault point fires before anything is written, and
// the manifest is renamed into place only after state.bdd is, so an
// injected failure never damages the previous checkpoint.
func (s *Solver) writeCheckpoint(idx int, iter int64, delta map[string]*rel.Relation) error {
	resilience.FaultPoint(resilience.FaultCheckpointWrite)
	dir := s.opts.Checkpoint.Dir
	// The checkpoint is one BDD DAG over the relations' live roots
	// followed by the frontier's, in sorted name order.
	names := make([]string, 0, len(s.prog.Relations))
	roots := make([]bdd.Node, 0, len(s.prog.Relations)+len(delta))
	for _, rd := range s.prog.Relations {
		names = append(names, rd.Name)
		roots = append(roots, s.rels[rd.Name].Root())
	}
	dnames := make([]string, 0, len(delta))
	for n := range delta {
		dnames = append(dnames, n)
	}
	sort.Strings(dnames)
	for _, n := range dnames {
		roots = append(roots, delta[n].Root())
	}
	var buf bytes.Buffer
	if err := s.u.M.WriteDAG(&buf, roots); err != nil {
		return fmt.Errorf("datalog: checkpoint state: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("datalog: checkpoint dir: %w", err)
	}
	if err := resilience.AtomicWriteFile(resilience.StatePath(dir), buf.Bytes()); err != nil {
		return fmt.Errorf("datalog: checkpoint state: %w", err)
	}
	return resilience.WriteManifest(dir, &resilience.Manifest{
		Fingerprint: s.fingerprint(),
		Stratum:     idx,
		Iteration:   iter,
		Relations:   names,
		Deltas:      dnames,
	})
}

// resumeState is a loaded checkpoint: evaluation restarts at the given
// stratum, with deltas (when non-nil) seeding the semi-naive frontier
// after the given completed iteration.
type resumeState struct {
	stratum int
	iter    int64
	deltas  map[string]*rel.Relation
}

// loadCheckpoint restores a checkpoint written by writeCheckpoint into
// the solver's relations and returns where to pick up. The checkpoint
// must carry this program's fingerprint.
func (s *Solver) loadCheckpoint(dir string) (*resumeState, error) {
	man, err := resilience.ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	if want := s.fingerprint(); man.Fingerprint != want {
		return nil, fmt.Errorf("datalog: checkpoint in %s belongs to a different program (fingerprint %.12s…, want %.12s…)",
			dir, man.Fingerprint, want)
	}
	if man.Stratum < 0 || man.Stratum > len(s.strata) {
		return nil, fmt.Errorf("datalog: checkpoint stratum %d out of range (program has %d strata)", man.Stratum, len(s.strata))
	}
	if len(man.Relations) != len(s.prog.Relations) {
		return nil, fmt.Errorf("datalog: checkpoint lists %d relations, program declares %d", len(man.Relations), len(s.prog.Relations))
	}
	for i, rd := range s.prog.Relations {
		if man.Relations[i] != rd.Name {
			return nil, fmt.Errorf("datalog: checkpoint relation %d is %q, program declares %q", i, man.Relations[i], rd.Name)
		}
	}
	f, err := os.Open(resilience.StatePath(dir))
	if err != nil {
		return nil, fmt.Errorf("datalog: checkpoint state: %w", err)
	}
	defer f.Close()
	roots, err := s.u.M.ReadDAG(f)
	if err != nil {
		return nil, fmt.Errorf("datalog: checkpoint state: %w", err)
	}
	if len(roots) != len(man.Relations)+len(man.Deltas) {
		return nil, fmt.Errorf("datalog: checkpoint state holds %d roots, manifest names %d relations + %d deltas (interrupted checkpoint write?)",
			len(roots), len(man.Relations), len(man.Deltas))
	}
	for i, name := range man.Relations {
		old := s.rels[name]
		s.ReplaceRelation(name, s.u.NewRelationFromBDD(name, roots[i], old.Attrs()...))
	}
	rs := &resumeState{stratum: man.Stratum, iter: man.Iteration}
	if len(man.Deltas) > 0 {
		rs.deltas = make(map[string]*rel.Relation, len(man.Deltas))
		for i, name := range man.Deltas {
			base := s.rels[name]
			if base == nil {
				return nil, fmt.Errorf("datalog: checkpoint delta %q names an undeclared relation", name)
			}
			rs.deltas[name] = s.u.NewRelationFromBDD("Δ"+name, roots[len(man.Relations)+i], base.Attrs()...)
		}
	}
	return rs, nil
}
