package analysis

import (
	"math/big"

	"bddbddb/internal/rel"
)

// EscapeMetrics are the Figure 5 columns.
type EscapeMetrics struct {
	CapturedSites int // heap objects: captured
	EscapedSites  int // heap objects: escaped
	UnneededSyncs int // sync operations: not needed
	NeededSyncs   int // sync operations: needed
}

// EscapeResults summarizes a RunThreadEscape result into Figure 5's
// rows: allocation sites are escaped if any clone of them escapes, and
// a sync operation is needed if it may lock an escaped object.
func EscapeResults(r *Result) EscapeMetrics {
	var m EscapeMetrics
	escaped := make(map[uint64]bool)
	r.Solver.Relation("escaped").Iterate(func(vals []uint64) bool {
		escaped[vals[1]] = true
		return true
	})
	capturedOnly := make(map[uint64]bool)
	r.Solver.Relation("captured").Iterate(func(vals []uint64) bool {
		if !escaped[vals[1]] {
			capturedOnly[vals[1]] = true
		}
		return true
	})
	m.EscapedSites = len(escaped)
	m.CapturedSites = len(capturedOnly)

	needed := make(map[uint64]bool)
	r.Solver.Relation("neededSyncs").Iterate(func(vals []uint64) bool {
		needed[vals[1]] = true
		return true
	})
	total := make(map[uint64]bool)
	for _, t := range r.Facts.Syncs {
		total[t[0]] = true
	}
	m.NeededSyncs = len(needed)
	m.UnneededSyncs = len(total) - len(needed)
	return m
}

// RefinementMetrics are the Figure 6 columns for one analysis variant.
type RefinementMetrics struct {
	TypedVars int // variables with at least one exact type
	MultiType int // of those, variables with more than one exact type
	Refinable int // of those, variables whose declared type can tighten
	MultiPct  float64
	RefinePct float64
}

// RefinementResults summarizes a run with a TypeRefinementQuerySrc
// fragment into Figure 6's percentages.
func RefinementResults(r *Result) RefinementMetrics {
	var m RefinementMetrics
	typed := make(map[uint64]bool)
	r.Solver.Relation("typedVar").Iterate(func(vals []uint64) bool {
		typed[vals[0]] = true
		return true
	})
	multi := make(map[uint64]bool)
	r.Solver.Relation("multiType").Iterate(func(vals []uint64) bool {
		if typed[vals[0]] {
			multi[vals[0]] = true
		}
		return true
	})
	refinable := make(map[uint64]bool)
	r.Solver.Relation("refinable").Iterate(func(vals []uint64) bool {
		if typed[vals[0]] {
			refinable[vals[0]] = true
		}
		return true
	})
	m.TypedVars = len(typed)
	m.MultiType = len(multi)
	m.Refinable = len(refinable)
	if m.TypedVars > 0 {
		m.MultiPct = 100 * float64(m.MultiType) / float64(m.TypedVars)
		m.RefinePct = 100 * float64(m.Refinable) / float64(m.TypedVars)
	}
	return m
}

// RelationSize returns a named output relation's exact cardinality.
func (r *Result) RelationSize(name string) *big.Int {
	return r.Solver.Relation(name).Size()
}

// Relation exposes a solver relation (owned by the solver).
func (r *Result) Relation(name string) *rel.Relation { return r.Solver.Relation(name) }

// HasPointsTo reports whether the result has a points-to relation (vP,
// vPC or vPT) for PointsToPairs to read. Algorithm 6 has none.
func (r *Result) HasPointsTo() bool {
	return r.Solver.HasRelation("vP") || r.Solver.HasRelation("vPC") || r.Solver.HasRelation("vPT")
}

// PointsToPairs projects a points-to relation to (variable, heap)
// pairs, dropping contexts if present: the "projected" rows of Figure 6
// and the comparison basis for precision tests. It is empty when
// HasPointsTo is false.
func (r *Result) PointsToPairs() map[[2]uint64]bool {
	out := make(map[[2]uint64]bool)
	switch {
	case r.Solver.HasRelation("vP"):
		r.Solver.Relation("vP").Iterate(func(vals []uint64) bool {
			out[[2]uint64{vals[0], vals[1]}] = true
			return true
		})
	case r.Solver.HasRelation("vPC"):
		proj := r.Solver.Relation("vPC").ProjectOut("vP~", "context")
		defer proj.Free()
		proj.Iterate(func(vals []uint64) bool {
			out[[2]uint64{vals[0], vals[1]}] = true
			return true
		})
	case r.Solver.HasRelation("vPT"):
		proj := r.Solver.Relation("vPT").ProjectOut("vP~", "cv", "ch")
		defer proj.Free()
		proj.Iterate(func(vals []uint64) bool {
			out[[2]uint64{vals[0], vals[1]}] = true
			return true
		})
	}
	return out
}
