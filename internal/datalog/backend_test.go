package datalog

import (
	"strings"
	"testing"
)

// TestBackendDifferential solves every corpus program with both
// fixpoint loops — semi-naive, and the NoIncrementalization ablation's
// full re-application — and demands that the BDD solver match the
// explicit tuple-set evaluator (NaiveSolver) on every output relation.
// NaiveSolver shares only the parser and stratifier with the BDD
// solver, so it is an independent oracle for storage and planning
// alike.
func TestBackendDifferential(t *testing.T) {
	programs := []struct {
		name   string
		src    string
		inputs map[string][][]uint64
	}{
		{"tc", tcSrc, map[string][][]uint64{"e": {{0, 1}, {1, 2}, {2, 3}, {3, 1}}}},
		{"pointsto", ptSrc, ptInputs},
		{"negation", negSrc, negInputs},
		{"features", featSrc, featInputs},
	}
	cfgs := []struct {
		name string
		opts Options
	}{
		{"default", Options{}},
		{"no-incrementalization", Options{NoIncrementalization: true}},
	}
	for _, pr := range programs {
		t.Run(pr.name, func(t *testing.T) {
			for _, c := range cfgs {
				t.Run(c.name, func(t *testing.T) {
					solveBoth(t, pr.src, c.opts, pr.inputs)
				})
			}
		})
	}
}

// TestBackendMetrics pins the datalog.backend.* gauges: a solve reports
// how many relational ops ran on its BDDs, and no other backend gauge
// exists to export a constant zero.
func TestBackendMetrics(t *testing.T) {
	s := solveInputs(t, ptSrc, ptInputs)
	snap := s.Metrics().Snapshot()
	if snap["datalog.backend.bdd.ops"] <= 0 {
		t.Errorf("datalog.backend.bdd.ops = %v, want > 0", snap["datalog.backend.bdd.ops"])
	}
	for k := range snap {
		if strings.HasPrefix(k, "datalog.backend.") && k != "datalog.backend.bdd.ops" {
			t.Errorf("unexpected metric %s = %v", k, snap[k])
		}
	}
}
