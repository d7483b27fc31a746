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
//
// Produced and peak live nodes are also pinned: they count the garbage
// the context materialization and the solve leave between collections,
// so a change that makes more of it fails here. Re-record them only for
// an intended change, with its reason.
func TestSolveCountersRepeat(t *testing.T) {
	f := synthFacts(t, "jetty")
	for _, tc := range []struct {
		name     string
		run      func() (*Result, error)
		produced int64
		peakLive int
	}{
		{"cs", func() (*Result, error) { return RunContextSensitive(f, nil, Config{}) }, 163964, 163966},
		{"heap-cs", func() (*Result, error) { return RunHeapCloned(f, nil, Config{}) }, 340512, 340514},
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
		a, b := stats(), stats()
		if a != b {
			t.Errorf("%s: BDD counters differ between identical solves:\n%+v\n%+v", tc.name, a, b)
		}
		if a.Produced != tc.produced || a.PeakLive != tc.peakLive {
			t.Errorf("%s: produced %d nodes, peak live %d; pinned %d and %d",
				tc.name, a.Produced, a.PeakLive, tc.produced, tc.peakLive)
		}
	}
}
