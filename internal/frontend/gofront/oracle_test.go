package gofront

import (
	"testing"

	"bddbddb/internal/analysis"
	"bddbddb/internal/datalog"
	"bddbddb/internal/extract"
)

func fixtureFacts(t *testing.T, name string) *extract.Facts {
	t.Helper()
	res := lowerFixture(t, name)
	f, err := extract.Extract(res.Prog, extract.Options{})
	if err != nil {
		t.Fatalf("extracting %s: %v", name, err)
	}
	return f
}

func pairsOf(r *analysis.Result) map[[2]uint64]bool { return r.PointsToPairs() }

func comparePairs(t *testing.T, f *extract.Facts, got, want map[[2]uint64]bool, gotName, wantName string) {
	t.Helper()
	for k := range want {
		if !got[k] {
			t.Fatalf("%s missing vP(%s, %s) present in %s", gotName, f.Vars[k[0]], f.Heaps[k[1]], wantName)
		}
	}
	for k := range got {
		if !want[k] {
			t.Fatalf("%s has extra vP(%s, %s) absent from %s", gotName, f.Vars[k[0]], f.Heaps[k[1]], wantName)
		}
	}
}

// TestOracleHandCoded: for every Go fixture, the Datalog engine solving
// the frontend's facts context-insensitively must agree exactly with
// the hand-coded Algorithm 2 BDD pipeline — the same oracle the
// synthetic and .jp programs are held to.
func TestOracleHandCoded(t *testing.T) {
	for _, name := range fixtureNames(t) {
		t.Run(name, func(t *testing.T) {
			f := fixtureFacts(t, name)
			hc, err := analysis.RunHandCoded(f)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := analysis.RunContextInsensitive(f, true, analysis.Config{})
			if err != nil {
				t.Fatal(err)
			}
			hcPairs := make(map[[2]uint64]bool)
			hc.VP.Iterate(func(vals []uint64) bool {
				hcPairs[[2]uint64{vals[0], vals[1]}] = true
				return true
			})
			engPairs := pairsOf(eng)
			if len(engPairs) == 0 {
				t.Fatalf("%s: empty points-to result", name)
			}
			comparePairs(t, f, engPairs, hcPairs, "engine", "hand-coded")
		})
	}
}

// TestOraclePlanDifferential: on Go-derived inputs, Algorithm 2's vP
// as the optimizing planner computes it must equal NaiveSolver's
// re-solve of the same input (datalog.NaiveReplay).
func TestOraclePlanDifferential(t *testing.T) {
	for _, name := range fixtureNames(t) {
		t.Run(name, func(t *testing.T) {
			f := fixtureFacts(t, name)
			var ns *datalog.NaiveSolver
			opt, err := analysis.RunContextInsensitive(f, true, analysis.Config{PreSolve: func(s *datalog.Solver) (err error) {
				ns, err = datalog.NaiveReplay(s)
				return err
			}})
			if err != nil {
				t.Fatal(err)
			}
			if err := ns.Solve(); err != nil {
				t.Fatal(err)
			}
			naive := make(map[[2]uint64]bool)
			for _, row := range ns.Tuples("vP") {
				naive[[2]uint64{row[0], row[1]}] = true
			}
			if len(naive) == 0 {
				t.Fatal("empty naive points-to result")
			}
			comparePairs(t, f, pairsOf(opt), naive, "optimized-plan", "naive-oracle")
		})
	}
}

// TestFixturesSolveContextSensitively: every fixture must survive the
// full cloning-based context-sensitive pipeline.
func TestFixturesSolveContextSensitively(t *testing.T) {
	for _, name := range fixtureNames(t) {
		t.Run(name, func(t *testing.T) {
			f := fixtureFacts(t, name)
			r, err := analysis.RunContextSensitiveOnTheFly(f, analysis.Config{})
			if err != nil {
				t.Fatal(err)
			}
			if len(pairsOf(r)) == 0 {
				t.Fatal("empty context-sensitive points-to result")
			}
		})
	}
}

// TestOracleBackendDifferential: on Go-derived inputs, Algorithm 3
// solved on BDDs must agree exactly with analysis.ReferenceOnTheFly,
// the same rules evaluated over explicit Go maps.
func TestOracleBackendDifferential(t *testing.T) {
	for _, name := range fixtureNames(t) {
		t.Run(name, func(t *testing.T) {
			f := fixtureFacts(t, name)
			r, err := analysis.RunOnTheFly(f, analysis.Config{})
			if err != nil {
				t.Fatal(err)
			}
			want := analysis.ReferenceOnTheFly(f, true).VPSet()
			if len(want) == 0 {
				t.Fatal("empty reference points-to result")
			}
			comparePairs(t, f, pairsOf(r), want, "bdd-engine", "explicit-reference")
		})
	}
}
