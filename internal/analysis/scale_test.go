package analysis

import (
	"testing"

	"bddbddb/internal/extract"
	"bddbddb/internal/synth"
)

// scaledMegamek extracts megamek with its Classes, Interfaces and Width
// multiplied by k: more classes, methods and call sites, and a wider
// call skeleton with more contexts.
func scaledMegamek(t testing.TB, k int) *extract.Facts {
	t.Helper()
	p := synth.BenchmarkByName("megamek").Params
	p.Classes *= k
	p.Interfaces *= k
	p.Width *= k
	f, err := extract.Extract(synth.Generate(p), extract.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestCSScalesWithProgramSize is the paper's claim that cost follows
// BDD structure, not the number of contexts, as a gate: tripling
// megamek's classes, interfaces and call-skeleton width must at most
// quadruple the apply-cache lookups of the context-sensitive solve
// (materialization included). Seeding rule (14) through the heap's
// method made that one conjunction walk the whole context relation once
// per heap subtree, which grew far faster than the program. Both
// counts are also pinned: they repeat exactly from run to run.
func TestCSScalesWithProgramSize(t *testing.T) {
	if testing.Short() {
		t.Skip("solves megamek and megamek ×3")
	}
	lookups := func(k int) int64 {
		r, err := RunContextSensitive(scaledMegamek(t, k), nil, Config{})
		if err != nil {
			t.Fatal(err)
		}
		st := r.Solver.Universe().M.Stats()
		return st.Apply.Hits + st.Apply.Misses
	}
	one, three := lookups(1), lookups(3)
	t.Logf("apply lookups: %d at ×1, %d at ×3 (%.2f×)", one, three, float64(three)/float64(one))
	if three > 4*one {
		t.Errorf("megamek ×3 made %d apply lookups, more than 4× megamek's %d", three, one)
	}
	if pin := [2]int64{1048398, 3597754}; one != pin[0] || three != pin[1] {
		t.Errorf("apply lookups %d and %d; pinned %d and %d", one, three, pin[0], pin[1])
	}
}
