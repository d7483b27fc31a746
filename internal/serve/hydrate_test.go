package serve

import (
	"net/url"
	"testing"
)

// TestConcurrentHydration: a pool's replicas hydrate at once from the
// one dump, each into its own manager. Every replica must hold exactly
// the solver's relations and answer like the others; under -race the
// test also shows the hydrations share nothing they write.
func TestConcurrentHydration(t *testing.T) {
	res, facts := synthSolve(t, "cs")
	s, err := New(res.Solver, Config{Replicas: 4, CacheEntries: -1, SampleInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	base := newTestHTTP(t, s)
	checkServing(t, s, res.Solver)
	for _, v := range namesOf(s, "V", facts.Vars, 8) {
		ask := func() string {
			_, body, _ := get(t, base+"/aliases?var="+url.QueryEscape(v))
			return solveMs.ReplaceAllString(body, "")
		}
		first := ask()
		for range 8 {
			if body := ask(); body != first {
				t.Fatalf("aliases of %s differ between replicas:\n%s\n%s", v, first, body)
			}
		}
	}
}
