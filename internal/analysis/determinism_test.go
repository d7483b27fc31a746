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
// Produced and peak live nodes are also pinned, for every entry point
// in entryPoints: they count the garbage the inputs, the context
// materialization and the solve leave between collections, so a change
// that makes more of it, or that reorders how an entry point builds its
// inputs, fails here. Re-record them only for an intended change, with
// its reason. algo5_cs, algo5_csotf, algo6_type and algo8_heapcs were
// last re-recorded when rules (14)/(20) and Algorithm 8's seed began
// joining vP0 with the variable's method contexts (vC, vcH) instead of
// the allocation site's (hC, hcH): the same outputs from a smaller seed
// conjunction (heap-cs makes more nodes but now collects mid-solve).
func TestSolveCountersRepeat(t *testing.T) {
	f := synthFacts(t, "jetty")
	pins := map[string][2]int64{ // entry point -> {produced, peak live}
		"algo1_ci":      {27210, 27212},
		"algo2_cif":     {30582, 30584},
		"algo3_otf":     {55904, 51141},
		"algo5_cs":      {157051, 157053},
		"algo5_csotf":   {3694598, 3193581},
		"algo6_type":    {138490, 121817},
		"algo7_threads": {49309, 49311},
		"algo8_heapcs":  {362832, 260932},
		"type_ci":       {18671, 18673},
	}
	for _, ep := range entryPoints {
		t.Run(ep.name, func(t *testing.T) {
			pin, ok := pins[ep.name]
			if !ok {
				t.Fatalf("no pinned counters for entry point %s", ep.name)
			}
			stats := func() bdd.Stats {
				r, err := ep.run(f, Config{})
				if err != nil {
					t.Fatal(err)
				}
				st := r.Solver.Universe().M.Stats()
				st.GCTime = 0 // wall time, not a counter
				return st
			}
			a, b := stats(), stats()
			if a != b {
				t.Errorf("BDD counters differ between identical solves:\n%+v\n%+v", a, b)
			}
			if a.Produced != pin[0] || int64(a.PeakLive) != pin[1] {
				t.Errorf("produced %d nodes, peak live %d; pinned %d and %d",
					a.Produced, a.PeakLive, pin[0], pin[1])
			}
		})
	}
}
