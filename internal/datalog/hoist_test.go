package datalog

import "testing"

// selfJoinSrc is the paper's Algorithm 1. Rule (16)'s two vP literals
// rename vP to different physical instances, so each delta variant
// hoists the other literal's Reshape of a relation the stratum grows.
const selfJoinSrc = `
.domain V 16
.domain H 8
.domain F 4
.relation vP0 (variable : V, heap : H) input
.relation store (base : V, field : F, source : V) input
.relation load (base : V, field : F, dest : V) input
.relation assign (dest : V, source : V) input
.relation vP (variable : V, heap : H) output
.relation hP (base : H, field : F, target : H) output
vP(v, h)      :- vP0(v, h).
vP(v1, h)     :- assign(v1, v2), vP(v2, h).
hP(h1, f, h2) :- store(v1, f, v2), vP(v1, h1), vP(v2, h2).
vP(v2, h2)    :- load(v1, f, v2), vP(v1, h1), hP(h1, f, h2).
`

var selfJoinInputs = map[string][][]uint64{
	"vP0":    {{0, 0}, {1, 1}, {4, 2}, {9, 3}},
	"assign": {{2, 0}, {3, 2}, {5, 4}, {6, 5}, {7, 3}, {10, 9}, {11, 8}},
	"store":  {{2, 0, 4}, {3, 1, 9}, {6, 2, 1}, {7, 0, 5}},
	"load":   {{3, 0, 8}, {5, 1, 12}, {7, 2, 13}, {13, 0, 14}, {12, 0, 15}},
}

// TestHoistMaintenanceMatchesRecompute checks delta maintenance of the
// hoisted normalizations: after every head growth, each cache entry
// that is current for its source must equal the pipeline recomputed
// over the whole source. It runs the batch solve and an incremental
// update on the BDD store, and requires every relation to match
// NaiveSolver over the updated inputs.
func TestHoistMaintenanceMatchesRecompute(t *testing.T) {
	t.Run("bdd", testHoistMaintenanceMatchesRecompute)
}

func testHoistMaintenanceMatchesRecompute(t *testing.T) {
	s, err := NewSolver(MustParse(selfJoinSrc), Options{})
	if err != nil {
		t.Fatal(err)
	}
	maintained := 0
	s.afterGrow = func(rules []*compiledRule) {
		for _, cr := range rules {
			for _, c := range cr.cache {
				if c.norm == nil || c.stamp != c.src.Stamp() {
					continue
				}
				if c.src.Name == "vP" {
					maintained++
				}
				want := s.runPipeline(c.lit, c.src, nil)
				if !want.SameTuples(c.norm) {
					t.Errorf("%s: hoisted %s differs from its recomputed pipeline", cr.rule, c.lit.Pred)
				}
				want.Free()
			}
		}
	}
	for name, rows := range selfJoinInputs {
		s.Relation(name).AddTuples(rows)
	}
	if err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	inc, err := NewIncrementalSolver(s)
	if err != nil {
		t.Fatal(err)
	}
	add := map[string][][]uint64{"vP0": {{8, 4}, {14, 5}}, "store": {{11, 3, 10}}}
	txn, err := inc.Update(nil, Delta{Add: add})
	if err != nil {
		t.Fatal(err)
	}
	if txn.Stats.StrataFast == 0 {
		t.Fatal("the update took no fast (delta) path")
	}
	txn.Commit()
	if maintained == 0 {
		t.Fatal("no hoisted normalization of vP was current after a growth: the test exercises nothing")
	}

	ns, err := NewNaiveSolver(MustParse(selfJoinSrc), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range []map[string][][]uint64{selfJoinInputs, add} {
		for name, rows := range in {
			for _, row := range rows {
				ns.AddTuple(name, row...)
			}
		}
	}
	if err := ns.Solve(); err != nil {
		t.Fatal(err)
	}
	requireSameAsNaive(t, s, ns)
}
