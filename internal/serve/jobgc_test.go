package serve

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// TestJobEndCollectionReclaimsQuery: the collection a replica is
// offered when a query job ends runs after the job has closed the
// query's result, so it reclaims the query's output relation instead of
// keeping it alive until the next collection. The query is facts only:
// a query solve offers collections only at its fixpoint iterations, and
// facts run none, so any collection during the job is the job-end one.
func TestJobEndCollectionReclaimsQuery(t *testing.T) {
	res, facts := synthSolve(t, "cs")
	s, err := New(res.Solver, Config{Replicas: 1, MaxInFlight: 1, SampleInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rep := hydrated(t, res)
	m := rep.U.M

	// Each query asserts a different random half of V×H, so its output
	// is new nodes rather than a resurrection of the last one's garbage.
	rng := rand.New(rand.NewSource(1))
	query := func() string {
		var src strings.Builder
		src.WriteString(".relation q (variable : V, heap : H) output\n")
		for _, v := range facts.Vars {
			for _, h := range facts.Heaps {
				if rng.Intn(2) == 0 {
					fmt.Fprintf(&src, "q(%q, %q).\n", v, h)
				}
			}
		}
		return src.String()
	}
	for i := 0; ; i++ {
		if i == 100 {
			t.Fatal("no collection at job end in 100 queries")
		}
		gcs := m.Stats().GCs
		j := &job{ctx: context.Background(), src: query(), done: make(chan struct{})}
		s.runJob(rep, j)
		if j.err != nil {
			t.Fatal(j.err)
		}
		if m.Stats().GCs == gcs {
			continue
		}
		live := m.LiveNodes()
		if reclaimed := m.GC(); live != reclaimed {
			t.Fatalf("a collection after the job-end one reclaimed %d more nodes: the query's output survived it", live-reclaimed)
		}
		return
	}
}
