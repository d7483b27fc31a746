package analysis

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"bddbddb/internal/datalog"
	"bddbddb/internal/extract"
	"bddbddb/internal/resilience"
	"bddbddb/internal/synth"
)

// updateCounterKeys are the solver counters TestUpdateCountersPinned
// pins. The datalog.op.result_nodes histogram is left out: it records
// per-op node deltas, which depend on the order ops run in.
var updateCounterKeys = []string{
	"datalog.iterations", "datalog.rule_applications",
	"datalog.op.load", "datalog.op.select_const", "datalog.op.equate_attrs",
	"datalog.op.project", "datalog.op.reshape", "datalog.op.join_project",
	"datalog.op.complement", "datalog.op.bind_full", "datalog.op.const_head",
	"datalog.op.dup_head", "datalog.op.norm_cache_hits", "datalog.op.norm_cache_misses",
}

// TestUpdateCountersPinned pins the exact work of a context-sensitive
// solve followed by two live updates: an add-only delta (the fast
// path) and a removal (the stratum-recompute path). The counters are
// cumulative over the solver's life and repeat exactly from run to
// run, so any change to how rules are planned or evaluated on either
// path moves them. Re-record them only for an intended change, with
// its reason. bdd.produced_nodes was last re-recorded when rule (14)
// began seeding through the variable's method (vC instead of hC): the
// same vPC with a differently shaped input and seed, 122 more nodes
// after the solve; no other counter moved.
func TestUpdateCountersPinned(t *testing.T) {
	prog := synth.Generate(synth.Params{
		Name: "upd", Seed: 11,
		Classes: 6, Interfaces: 2, FieldsPerClass: 2,
		Layers: 4, Width: 2, Fanout: 2,
		VirtualFrac: 0.4, OverrideFrac: 0.4, RecursionFrac: 0.2,
		Threads: 1, SyncsPerThread: 1,
	})
	f, err := extract.Extract(prog, extract.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunContextSensitive(f, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := r.Solver
	// counters leaves out zeros, so want lists only the op kinds that run.
	counters := func() map[string]int64 {
		snap := s.Metrics().Snapshot()
		out := map[string]int64{"bdd.produced_nodes": s.Universe().M.ProducedNodes()}
		for _, k := range updateCounterKeys {
			if v := int64(snap[k]); v != 0 {
				out[k] = v
			}
		}
		return out
	}
	got := []map[string]int64{counters()}
	d := randomUpdateDelta(s, rand.New(rand.NewSource(7)))
	ls, err := Live(r)
	if err != nil {
		t.Fatal(err)
	}
	ctl := resilience.NewController(context.Background(), resilience.Budget{})
	add := update(t, ls, ctl, datalog.Delta{Add: d.Add})
	got = append(got, counters())
	rem := update(t, ls, ctl, datalog.Delta{Remove: d.Remove})
	got = append(got, counters())
	if add.StrataFast == 0 || add.StrataRecomputed != 0 {
		t.Errorf("add-only update: %+v, want fast strata only", add)
	}
	if rem.StrataRecomputed == 0 {
		t.Errorf("removal: %+v, want a recomputed stratum", rem)
	}

	want := []map[string]int64{{
		"datalog.iterations": 3, "datalog.rule_applications": 17,
		"datalog.op.load": 49, "datalog.op.join_project": 49, "datalog.op.reshape": 52,
		"datalog.op.norm_cache_hits": 16, "datalog.op.norm_cache_misses": 20,
		"bdd.produced_nodes": 6239,
	}, {
		"datalog.iterations": 5, "datalog.rule_applications": 27,
		"datalog.op.load": 73, "datalog.op.join_project": 73, "datalog.op.reshape": 76,
		"datalog.op.norm_cache_hits": 19, "datalog.op.norm_cache_misses": 31,
		"bdd.produced_nodes": 6649,
	}, {
		"datalog.iterations": 8, "datalog.rule_applications": 43,
		"datalog.op.load": 119, "datalog.op.join_project": 119, "datalog.op.reshape": 124,
		"datalog.op.norm_cache_hits": 35, "datalog.op.norm_cache_misses": 48,
		"bdd.produced_nodes": 7064,
	}}
	for i, step := range []string{"solve", "add-only update", "removal"} {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("after the %s: counters\n got %v\nwant %v", step, got[i], want[i])
		}
	}
}
