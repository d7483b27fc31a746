package analysis

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"testing"
	"time"

	"bddbddb/internal/datalog"
	"bddbddb/internal/extract"
	"bddbddb/internal/obs"
	"bddbddb/internal/resilience"
	"bddbddb/internal/synth"
)

// randomAddDelta builds an add-only delta of n random in-range tuples
// spread across the extracted input relations — the common live-update
// shape (new allocations, new assignments, new call facts).
func randomAddDelta(s *datalog.Solver, rng *rand.Rand, n int) datalog.Delta {
	core := []string{"vP0", "store", "load", "actual", "mI"}
	var decls []*datalog.RelationDecl
	for _, name := range core {
		if !s.HasRelation(name) {
			continue
		}
		for _, rd := range s.RelationDecls() {
			if rd.Name == name && rd.Kind == datalog.RelInput {
				decls = append(decls, rd)
			}
		}
	}
	u := s.Universe()
	d := datalog.Delta{Add: map[string][][]uint64{}}
	for i := 0; i < n; i++ {
		rd := decls[rng.Intn(len(decls))]
		vals := make([]uint64, len(rd.Attrs))
		for j, a := range rd.Attrs {
			vals[j] = rng.Uint64() % u.Domain(a.Domain).Size
		}
		d.Add[rd.Name] = append(d.Add[rd.Name], vals)
	}
	return d
}

// TestWriteIncrementalBench records live-update latency against full
// re-solve wall time into BENCH_incremental.json: for the two largest
// BENCH_figure4 synthetic configurations solved context-sensitively,
// add-only deltas of 1, 10 and 100 tuples are applied through the
// incremental path, latencies observed into a latency histogram, and
// p50/p99 reported next to the wall time of a from-scratch solve of
// the inputs with a 1-tuple delta applied (Config.PreSolve, as the
// differential oracle does). Gated behind BENCH_INCREMENTAL_OUT so the
// regular test run stays fast:
//
//	BENCH_INCREMENTAL_OUT=BENCH_incremental.json go test ./internal/analysis -run TestWriteIncrementalBench
func TestWriteIncrementalBench(t *testing.T) {
	out := os.Getenv("BENCH_INCREMENTAL_OUT")
	if out == "" {
		t.Skip("set BENCH_INCREMENTAL_OUT=path to record incremental-update benchmarks")
	}
	vals := map[string]float64{}
	for _, name := range []string{"jetty", "joone"} {
		b := synth.BenchmarkByName(name)
		f, err := extract.Extract(synth.Generate(b.Params), extract.Options{})
		if err != nil {
			t.Fatal(err)
		}
		r, err := RunContextSensitive(f, nil, Config{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ls, err := Live(r)
		if err != nil {
			t.Fatal(err)
		}
		ctl := resilience.NewController(context.Background(), resilience.Budget{})
		rng := rand.New(rand.NewSource(42))

		// Full re-solve wall time: the whole analysis solved from
		// scratch with a 1-tuple delta applied.
		d := randomAddDelta(r.Solver, rng, 1)
		fullStart := time.Now()
		if _, err := RunContextSensitive(f, nil, Config{PreSolve: func(s *datalog.Solver) error {
			datalog.ApplyDeltaToRelations(s, d)
			return nil
		}}); err != nil {
			t.Fatalf("%s: full re-solve: %v", name, err)
		}
		fullSec := time.Since(fullStart).Seconds()
		vals["incremental."+name+".full_resolve_sec"] = fullSec
		t.Logf("%s full re-solve %.4fs", name, fullSec)

		for _, size := range []int{1, 10, 100} {
			reps := 30
			if size == 100 {
				reps = 10
			}
			h := obs.NewHistogram(obs.LatencyBuckets())
			for rep := 0; rep < reps; rep++ {
				wd := wire(randomAddDelta(r.Solver, rng, size))
				start := time.Now()
				if _, err := ls.Begin(ctl, wd); err != nil {
					t.Fatalf("%s d%d: %v", name, size, err)
				}
				ls.Commit()
				h.Observe(time.Since(start).Seconds())
			}
			p50, p99 := h.Quantile(0.50), h.Quantile(0.99)
			key := fmt.Sprintf("incremental.%s.d%d.", name, size)
			vals[key+"p50_sec"] = p50
			vals[key+"p99_sec"] = p99
			vals[key+"speedup_p50"] = fullSec / p50
			t.Logf("%s d%-3d p50 %.6fs p99 %.6fs (%.0f× vs full)", name, size, p50, p99, fullSec/p50)
		}
	}
	fh, err := os.Create(out)
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	if err := obs.WriteMetricsJSON(fh, "incremental", vals); err != nil {
		t.Fatal(err)
	}
}
