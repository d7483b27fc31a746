package analysis

import (
	"testing"

	"bddbddb/internal/bdd"
)

// TestSolveCountersRepeat solves the same facts twice in one process
// and requires identical BDD counters. Node numbering follows the order
// in which nodes are built, and op-cache hits follow node numbering, so
// any dependence on Go map iteration order shows up here as a drift of
// produced nodes, peak live nodes or cache hits between the runs.
func TestSolveCountersRepeat(t *testing.T) {
	f := synthFacts(t, "jetty")
	for _, tc := range []struct {
		name string
		run  func() (*Result, error)
	}{
		{"cs", func() (*Result, error) { return RunContextSensitive(f, nil, Config{}) }},
		{"heap-cs", func() (*Result, error) { return RunHeapCloned(f, nil, Config{}) }},
	} {
		stats := func() bdd.Stats {
			r, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			st := r.Solver.Universe().M.Stats()
			st.GCTime = 0 // wall time, not a counter
			return st
		}
		if a, b := stats(), stats(); a != b {
			t.Errorf("%s: BDD counters differ between identical solves:\n%+v\n%+v", tc.name, a, b)
		}
	}
}
