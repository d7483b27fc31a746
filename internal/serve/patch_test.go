package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"testing"
	"time"

	"bddbddb/internal/analysis"
	"bddbddb/internal/bdd"
	"bddbddb/internal/datalog"
	"bddbddb/internal/extract"
	"bddbddb/internal/resilience"
	"bddbddb/internal/synth"
)

// dumpSum hashes a full dump of roots. A dump is canonical — its ids
// follow the DAG's structure, not node indices — so two managers with
// the same variable order give equal sums exactly when the roots are
// equal functions.
func dumpSum(t testing.TB, m *bdd.Manager, roots []bdd.Node) string {
	t.Helper()
	var buf bytes.Buffer
	if err := m.WriteDAG(&buf, roots); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// checkServing requires every replica's view of the serving generation
// to hold exactly the live solver's relations, as a full hydrate of the
// solver would, and the server's fingerprint to be a fresh snapshot's.
// It walks every node of every replica.
func checkServing(t testing.TB, s *Server, sv *datalog.Solver) {
	t.Helper()
	want := dumpSum(t, sv.Universe().M, relationRoots(sv))
	g := s.current()
	got := make([]string, len(g.pool.ctl))
	g.pool.onWorkers(func(i int, v views) {
		got[i] = dumpSum(t, v[g.gen].U.M, viewRoots(g, v))
	})
	for i, sum := range got {
		if sum != want {
			t.Fatalf("generation %d: replica %d's relations differ from the live solver's", g.gen, i)
		}
	}
	fresh, err := NewSnapshot(sv)
	if err != nil {
		t.Fatal(err)
	}
	if s.Fingerprint() != fresh.Fingerprint() {
		t.Fatalf("generation %d: fingerprint %s, a fresh snapshot's %s", g.gen, s.Fingerprint(), fresh.Fingerprint())
	}
}

// viewRoots lists the roots of generation g's view in v, in snapshot
// order.
func viewRoots(g *generation, v views) []bdd.Node {
	rep := v[g.gen]
	roots := make([]bdd.Node, len(g.snap.relations))
	for k, rm := range g.snap.relations {
		roots[k] = rep.Rels[rm.name].Root()
	}
	return roots
}

// hashTracker is checkServing in O(delta) per generation: it keeps its
// own DAGWriter on the live solver's manager and on every replica's,
// so each check writes only the nodes the last update added, and
// compares the roots' structural hashes. A fresh snapshot's
// fingerprint is the hash of the same structural hashes, so the live
// writer also gives the fingerprint NewSnapshot would report. The
// replicas' writers belong to one pool: a full publish hydrates a new
// pool, and its replicas get new writers.
type hashTracker struct {
	live *bdd.DAGWriter
	pool *pool
	reps []*bdd.DAGWriter
}

func (h *hashTracker) check(t testing.TB, s *Server, sv *datalog.Solver) {
	t.Helper()
	roots := relationRoots(sv)
	if h.live == nil {
		h.live = sv.Universe().M.NewDAGWriter()
	}
	if _, err := h.live.Write(io.Discard, roots); err != nil {
		t.Fatal(err)
	}
	g := s.current()
	if h.pool != g.pool {
		h.pool, h.reps = g.pool, make([]*bdd.DAGWriter, len(g.pool.ctl))
	}
	mismatch := make([]int, len(g.pool.ctl))
	g.pool.onWorkers(func(i int, v views) {
		if h.reps[i] == nil {
			h.reps[i] = v[g.gen].U.M.NewDAGWriter()
		}
		vr := viewRoots(g, v)
		if _, err := h.reps[i].Write(io.Discard, vr); err != nil {
			panic(err)
		}
		mismatch[i] = -1
		for k, rh := range h.reps[i].RootHashes() {
			if rh != h.live.RootHashes()[k] {
				mismatch[i] = k
				break
			}
		}
	})
	for i, k := range mismatch {
		if k >= 0 {
			t.Fatalf("generation %d: replica %d's %s differs from the live solver's", g.gen, i, g.snap.relations[k].name)
		}
	}
	if want := bdd.Fingerprint(h.live.RootHashes()); s.Fingerprint() != want {
		t.Fatalf("generation %d: fingerprint %s, a fresh snapshot's %s", g.gen, s.Fingerprint(), want)
	}
}

// TestPatchedChainMatchesFullHydrate drives a megamek cs server through
// a seeded chain of one-tuple vP0 adds and removes, one update degraded
// to its unbudgeted recompute by a 1ns budget and one publish failed by
// an injected snapshot.hydrate fault. After every generation each replica
// must hold what a full hydrate of the live solver holds, /healthz must
// report a fresh snapshot's fingerprint, and the publish must have
// taken the path its rules give. Every generation is checked by
// structural hashes (hashTracker), and every checkEvery-th, the
// failed one and the last also node by node (checkServing).
func TestPatchedChainMatchesFullHydrate(t *testing.T) {
	const steps, degradeAt, faultAt, checkEvery = 200, 60, 130, 25
	facts, err := extract.Extract(synth.Generate(synth.BenchmarkByName("megamek").Params), extract.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := analysis.RunContextSensitive(facts, nil, analysis.Config{DomainSlack: 64})
	if err != nil {
		t.Fatal(err)
	}
	live, err := analysis.Live(res)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(res.Solver, Config{Replicas: 2, QueryHeadroom: 1, Updater: live, SampleInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	base := newTestHTTP(t, s)
	var ht hashTracker
	ht.check(t, s, live.Solver())
	checkServing(t, s, live.Solver())

	rng := rand.New(rand.NewSource(7))
	have := make(map[[2]uint64]bool, len(facts.VP0))
	for _, tp := range facts.VP0 {
		have[[2]uint64{tp[0], tp[1]}] = true
	}
	var added [][2]uint64
	wantPublish := "patch"
	for step := 0; step < steps; step++ {
		var wd datalog.WireDelta
		if len(added) > 0 && rng.Intn(20) == 0 {
			k := rng.Intn(len(added))
			p := added[k]
			added = append(added[:k], added[k+1:]...)
			delete(have, p)
			wd.Remove = map[string][]datalog.WireTuple{"vP0": {{{Num: p[0]}, {Num: p[1]}}}}
		} else {
			p := [2]uint64{uint64(rng.Intn(len(facts.Vars))), uint64(rng.Intn(len(facts.Heaps)))}
			for have[p] {
				p = [2]uint64{uint64(rng.Intn(len(facts.Vars))), uint64(rng.Intn(len(facts.Heaps)))}
			}
			have[p] = true
			added = append(added, p)
			wd.Add = map[string][]datalog.WireTuple{"vP0": {{{Num: p[0]}, {Num: p[1]}}}}
		}
		gen := s.Generation()
		switch step {
		case faultAt:
			restore := resilience.SetFaultHook(func(name string) {
				if name == resilience.FaultSnapshotHydrate {
					panic("injected fault at " + name)
				}
			})
			_, err := s.ApplyUpdate(context.Background(), wd)
			restore()
			if !errors.Is(err, resilience.ErrInternal) {
				t.Fatalf("step %d: faulted publish err = %v, want internal", step, err)
			}
			if s.Generation() != gen {
				t.Fatalf("step %d: failed publish moved the generation to %d", step, s.Generation())
			}
			checkServing(t, s, live.Solver())
			// The update rolled back: retry it, in full, since the failed
			// publish invalidated every dump index.
			wantPublish = "full"
		case degradeAt:
			// A degraded update recomputes on the live solver's own
			// manager, so its nodes are patched like any other's.
			s.cfg.UpdateTimeout = time.Nanosecond
		}
		r, err := s.ApplyUpdate(context.Background(), wd)
		s.cfg.UpdateTimeout = 2 * time.Minute
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if r.Generation != gen+1 || r.Publish != wantPublish || r.Stats.Full != (step == degradeAt) {
			t.Fatalf("step %d: generation %d publish %q full %v; want %d, %q, %v",
				step, r.Generation, r.Publish, r.Stats.Full, gen+1, wantPublish, step == degradeAt)
		}
		wantPublish = "patch"
		ht.check(t, s, live.Solver())
		if step%checkEvery == 0 || step == steps-1 {
			checkServing(t, s, live.Solver())
		}
		_, body, _ := get(t, base+"/healthz")
		var h struct {
			Fingerprint string `json:"snapshot_fingerprint"`
		}
		if err := json.Unmarshal([]byte(body), &h); err != nil {
			t.Fatal(err)
		}
		if h.Fingerprint != r.Fingerprint {
			t.Fatalf("step %d: /healthz fingerprint %s, update reported %s", step, h.Fingerprint, r.Fingerprint)
		}
	}
	if got := s.reg.Counter("serve.update.publish_full").Value(); got != 1 {
		t.Fatalf("publish_full = %d, want 1 (the retry after the fault)", got)
	}
	if got := s.reg.Counter("serve.update.publish_patched").Value(); got != steps-1 {
		t.Fatalf("publish_patched = %d, want %d", got, steps-1)
	}
}

// TestPatchGarbageBound publishes on the mini program until the ids
// issued since the last full snapshot pass 1/maxPatchGrowth of its
// node count: the publish after that is full, and it resets the bound.
func TestPatchGarbageBound(t *testing.T) {
	s, _, ls := liveServer(t, Config{Replicas: 2, SampleInterval: -1})
	checkServing(t, s, ls.Solver())
	full := 0
	for i := 0; i < 40 && full < 2; i++ {
		over := s.dw.Len()-s.fullIDs > s.fullIDs/maxPatchGrowth
		delta := datalog.WireDelta{Add: map[string][]datalog.WireTuple{"vP0": {{{Num: uint64(i % 8)}, {Num: uint64(i / 8 % 4)}}}}}
		if i%2 == 1 {
			delta = datalog.WireDelta{Remove: delta.Add}
		}
		r, err := s.ApplyUpdate(context.Background(), delta)
		if err != nil {
			if errors.Is(err, datalog.ErrUpdateRejected) {
				continue // the tuple was already there
			}
			t.Fatal(err)
		}
		if want := map[bool]string{true: "full", false: "patch"}[over]; r.Publish != want {
			t.Fatalf("update %d: publish %q with %d ids issued over %d, want %q", i, r.Publish, s.dw.Len()-s.fullIDs, s.fullIDs, want)
		}
		if over {
			full++
		}
		checkServing(t, s, ls.Solver())
	}
	if full == 0 {
		t.Fatal("no update crossed the garbage bound")
	}
}

// TestContentFingerprintMatchesSnapshot: the solver's ContentFingerprint
// and the snapshot fingerprint /healthz reports are one definition. On
// a megamek cs solve they agree before any update, and after a patched
// update the live solver's value is the one /healthz reports.
func TestContentFingerprintMatchesSnapshot(t *testing.T) {
	facts, err := extract.Extract(synth.Generate(synth.BenchmarkByName("megamek").Params), extract.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := analysis.RunContextSensitive(facts, nil, analysis.Config{DomainSlack: 64})
	if err != nil {
		t.Fatal(err)
	}
	before, err := res.Solver.ContentFingerprint()
	if err != nil {
		t.Fatal(err)
	}
	sn, err := NewSnapshot(res.Solver)
	if err != nil {
		t.Fatal(err)
	}
	if sn.Fingerprint() != before {
		t.Fatalf("snapshot fingerprint %s, solver's %s", sn.Fingerprint(), before)
	}
	live, err := analysis.Live(res)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(res.Solver, Config{Replicas: 1, QueryHeadroom: 1, Updater: live, SampleInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	base := newTestHTTP(t, s)
	have := make(map[[2]uint64]bool, len(facts.VP0))
	for _, tp := range facts.VP0 {
		have[[2]uint64{tp[0], tp[1]}] = true
	}
	p := [2]uint64{0, 0}
	for have[p] {
		p[1]++
	}
	wd := datalog.WireDelta{Add: map[string][]datalog.WireTuple{"vP0": {{{Num: p[0]}, {Num: p[1]}}}}}
	r, err := s.ApplyUpdate(context.Background(), wd)
	if err != nil {
		t.Fatal(err)
	}
	if r.Publish != "patch" {
		t.Fatalf("publish %q, want patch", r.Publish)
	}
	after, err := live.Solver().ContentFingerprint()
	if err != nil {
		t.Fatal(err)
	}
	_, body, _ := get(t, base+"/healthz")
	var h struct {
		Fingerprint string `json:"snapshot_fingerprint"`
	}
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	if h.Fingerprint != after || after == before {
		t.Fatalf("after the update: /healthz %s, live solver %s, before %s", h.Fingerprint, after, before)
	}
}
