package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bddbddb/internal/datalog"
	"bddbddb/internal/resilience"
)

// liveServer builds a server whose snapshots come from a LiveSolver
// over the mini points-to program, with updates enabled.
func liveServer(t testing.TB, cfg Config) (*Server, *httptest.Server, *datalog.LiveSolver) {
	t.Helper()
	sv := testSolver(t)
	ls, err := datalog.NewLiveSolver(sv)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Updater = ls
	s, err := New(sv, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s)
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return s, hs, ls
}

func healthGeneration(t testing.TB, base string) uint64 {
	t.Helper()
	_, body, _ := get(t, base+"/healthz")
	var h struct {
		Generation uint64 `json:"generation"`
	}
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	return h.Generation
}

func TestLiveUpdateSwap(t *testing.T) {
	s, hs, _ := liveServer(t, Config{Replicas: 2, MaxInFlight: 16})
	if g := healthGeneration(t, hs.URL); g != 1 {
		t.Fatalf("startup generation = %d, want 1", g)
	}
	// v6 points to nothing before the update.
	code, body, _ := get(t, hs.URL+"/pointsto?var=v6")
	if code != 200 || len(attrValues(t, body, "heap")) != 0 {
		t.Fatalf("pre-update pointsto v6: %d %s", code, body)
	}
	fpBefore := s.Fingerprint()

	code, body = post(t, hs.URL+"/update", `{"add":{"vP0":[["v6","h3"]]}}`)
	if code != 200 {
		t.Fatalf("update: %d %s", code, body)
	}
	var res UpdateResult
	if err := json.Unmarshal([]byte(body), &res); err != nil {
		t.Fatal(err)
	}
	if res.Generation != 2 || res.Stats.Added != 1 || res.Stats.Full {
		t.Fatalf("update result = %+v", res)
	}
	if g := healthGeneration(t, hs.URL); g != 2 {
		t.Fatalf("post-update generation = %d, want 2", g)
	}
	if s.Fingerprint() == fpBefore {
		t.Fatal("snapshot fingerprint unchanged after update")
	}
	code, body, hdr := get(t, hs.URL+"/pointsto?var=v6")
	if code != 200 {
		t.Fatalf("post-update pointsto v6: %d %s", code, body)
	}
	if got := attrValues(t, body, "heap"); len(got) != 1 || got[0] != "h3" {
		t.Fatalf("post-update pointsto v6 = %v, want [h3]", got)
	}
	if hdr.Get("X-Generation") != "2" {
		t.Fatalf("X-Generation = %q, want 2", hdr.Get("X-Generation"))
	}

	// A removal delta takes the recompute path and also swaps cleanly.
	code, body = post(t, hs.URL+"/update", `{"remove":{"vP0":[["v6","h3"]]}}`)
	if code != 200 {
		t.Fatalf("removal update: %d %s", code, body)
	}
	code, body, _ = get(t, hs.URL+"/pointsto?var=v6")
	if code != 200 || len(attrValues(t, body, "heap")) != 0 {
		t.Fatalf("post-removal pointsto v6: %d %s", code, body)
	}
	if g := healthGeneration(t, hs.URL); g != 3 {
		t.Fatalf("post-removal generation = %d, want 3", g)
	}
}

// TestStaleCacheNeverServedAcrossSwap is the regression test for
// generation-keyed caching: a cached pre-update answer must never be
// returned after the swap.
func TestStaleCacheNeverServedAcrossSwap(t *testing.T) {
	_, hs, _ := liveServer(t, Config{Replicas: 1, MaxInFlight: 8})
	// Prime the cache and verify it serves hits.
	code, body, _ := get(t, hs.URL+"/pointsto?var=v6")
	if code != 200 || len(attrValues(t, body, "heap")) != 0 {
		t.Fatalf("prime: %d %s", code, body)
	}
	_, _, hdr := get(t, hs.URL+"/pointsto?var=v6")
	if hdr.Get("X-Cache") != "hit" {
		t.Fatalf("second read X-Cache = %q, want hit", hdr.Get("X-Cache"))
	}
	if code, body := post(t, hs.URL+"/update", `{"add":{"vP0":[["v6","h1"]]}}`); code != 200 {
		t.Fatalf("update: %d %s", code, body)
	}
	code, body, hdr = get(t, hs.URL+"/pointsto?var=v6")
	if code != 200 {
		t.Fatalf("post-swap: %d %s", code, body)
	}
	if hdr.Get("X-Cache") == "hit" {
		t.Fatal("post-swap request served from pre-swap cache")
	}
	if got := attrValues(t, body, "heap"); len(got) != 1 || got[0] != "h1" {
		t.Fatalf("post-swap answer = %v, want [h1] (stale cache?)", got)
	}
}

// TestUpdateFaultMatrix injects a failure at every fault point of the
// update lifecycle, with concurrent query traffic throughout, and
// asserts: the update fails cleanly, the generation does not move, the
// answers stay those of the previous generation, traffic sees zero
// non-2xx, and no goroutines leak.
func TestUpdateFaultMatrix(t *testing.T) {
	points := []string{
		resilience.FaultUpdateApply,
		resilience.FaultUpdateResolve,
		resilience.FaultSnapshotHydrate,
		resilience.FaultSnapshotSwap,
	}
	before := runtime.NumGoroutine()
	for _, point := range points {
		t.Run(point, func(t *testing.T) {
			sv := testSolver(t)
			ls, err := datalog.NewLiveSolver(sv)
			if err != nil {
				t.Fatal(err)
			}
			s, err := New(sv, Config{Replicas: 2, MaxInFlight: 64, Updater: ls})
			if err != nil {
				t.Fatal(err)
			}
			hs := httptest.NewServer(s)
			defer func() {
				hs.Close()
				s.BeginDrain()
				s.Close()
			}()

			// Concurrent query traffic for the whole update lifetime.
			var stop atomic.Bool
			var non2xx atomic.Int64
			var wg sync.WaitGroup
			paths := []string{"/pointsto?var=v3", "/aliases?var=v1", "/whodunnit?heap=h2"}
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; !stop.Load(); i++ {
						code, body, _ := get(t, hs.URL+paths[(w+i)%len(paths)])
						if code/100 != 2 {
							non2xx.Add(1)
							t.Errorf("query during faulted update: %d %s", code, body)
							return
						}
					}
				}(w)
			}

			// A plain panic models an unclassified internal failure: no
			// degradation ladder applies, so the update must fail and roll
			// back. (Budget faults at apply/resolve instead degrade to an
			// unbudgeted recompute — TestUpdateBudgetDegradesToFull covers
			// that.)
			restore := resilience.SetFaultHook(func(name string) {
				if name == point {
					panic("injected fault at " + name)
				}
			})
			code, body := post(t, hs.URL+"/update", `{"add":{"vP0":[["v6","h3"]],"assign":[["v7","v6"]]}}`)
			restore()
			stop.Store(true)
			wg.Wait()

			if code != 500 {
				t.Fatalf("faulted update: %d %s, want 500 internal", code, body)
			}
			if n := non2xx.Load(); n != 0 {
				t.Fatalf("%d non-2xx query responses during faulted update", n)
			}
			if g := healthGeneration(t, hs.URL); g != 1 {
				t.Fatalf("generation moved to %d after failed update", g)
			}
			// The failed update must not have leaked its tuples into the
			// serving state or the live solver.
			code, body, _ = get(t, hs.URL+"/pointsto?var=v6")
			if code != 200 || len(attrValues(t, body, "heap")) != 0 {
				t.Fatalf("rolled-back update leaked: %d %s", code, body)
			}
			// And the next update must succeed cleanly.
			if code, body := post(t, hs.URL+"/update", `{"add":{"vP0":[["v6","h3"]]}}`); code != 200 {
				t.Fatalf("post-rollback update: %d %s", code, body)
			}
			if g := healthGeneration(t, hs.URL); g != 2 {
				t.Fatalf("post-rollback update generation = %d, want 2", g)
			}
		})
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestConcurrentQueriesAcrossSwap hammers the server while updates
// swap generations underneath, asserting zero non-2xx and that every
// answer matches either the pre- or post-update fixpoint (never a mix).
func TestConcurrentQueriesAcrossSwap(t *testing.T) {
	_, hs, _ := liveServer(t, Config{Replicas: 4, MaxInFlight: 64})
	var stop atomic.Bool
	var wg sync.WaitGroup
	errc := make(chan error, 16)
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				code, body, _ := get(t, hs.URL+"/pointsto?var=v6")
				if code != 200 {
					errc <- fmt.Errorf("query: %d %s", code, body)
					return
				}
				got := attrValues(t, body, "heap")
				if !(len(got) == 0 || (len(got) == 1 && got[0] == "h3")) {
					errc <- fmt.Errorf("mixed-state answer %v", got)
					return
				}
			}
		}()
	}
	for i := 0; i < 4; i++ {
		delta := `{"add":{"vP0":[["v6","h3"]]}}`
		if i%2 == 1 {
			delta = `{"remove":{"vP0":[["v6","h3"]]}}`
		}
		if code, body := post(t, hs.URL+"/update", delta); code != 200 {
			t.Errorf("update %d: %d %s", i, code, body)
			break
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

func TestUpdateRejectionsAndConflicts(t *testing.T) {
	// No updater configured: 501.
	_, plainHS := testServer(t, Config{Replicas: 1})
	if code, body := post(t, plainHS.URL+"/update", `{"add":{"vP0":[[6,3]]}}`); code != 501 {
		t.Fatalf("update without updater: %d %s, want 501", code, body)
	}

	s, hs, _ := liveServer(t, Config{Replicas: 1})
	cases := []struct {
		name, body string
		want       int
	}{
		{"bad json", `{"add":`, 400},
		{"empty delta", `{}`, 422},
		{"derived relation", `{"add":{"vP":[[0,0]]}}`, 422},
		{"unknown relation", `{"add":{"nosuch":[[0]]}}`, 422},
		{"arity", `{"add":{"vP0":[[1]]}}`, 422},
		{"out of range", `{"add":{"vP0":[[99,0]]}}`, 422},
		{"unknown removal name", `{"remove":{"vP0":[["ghost",0]]}}`, 422},
	}
	for _, tc := range cases {
		code, body := post(t, hs.URL+"/update", tc.body)
		if code != tc.want {
			t.Errorf("%s: %d %s, want %d", tc.name, code, body, tc.want)
		}
	}
	if g := healthGeneration(t, hs.URL); g != 1 {
		t.Fatalf("rejected updates moved generation to %d", g)
	}

	// A concurrent update holds the slot: the second gets 409.
	s.updateMu <- struct{}{}
	if code, body := post(t, hs.URL+"/update", `{"add":{"vP0":[[6,3]]}}`); code != 409 {
		t.Fatalf("overlapping update: %d %s, want 409", code, body)
	}
	<-s.updateMu

	// Draining server refuses updates with 503.
	s.BeginDrain()
	if _, err := s.ApplyUpdate(context.Background(), datalog.WireDelta{
		Add: map[string][]datalog.WireTuple{"vP0": {{{Num: 6}, {Num: 3}}}},
	}); !errors.Is(err, resilience.ErrCanceled) {
		t.Fatalf("draining update err = %v, want canceled", err)
	}
}

// TestUpdateBudgetDegradesToFull forces the incremental path over
// budget and asserts the update still lands through its degraded,
// unbudgeted recompute of the strata it reaches.
func TestUpdateBudgetDegradesToFull(t *testing.T) {
	s, hs, _ := liveServer(t, Config{Replicas: 1, UpdateTimeout: time.Nanosecond})
	code, body := post(t, hs.URL+"/update", `{"add":{"vP0":[["v6","h3"]]}}`)
	if code != 200 {
		t.Fatalf("degraded update: %d %s", code, body)
	}
	var res UpdateResult
	if err := json.Unmarshal([]byte(body), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Full {
		t.Fatalf("update result = %+v, want Full degradation", res)
	}
	if got := s.reg.Counter("serve.update.degraded_full").Value(); got != 1 {
		t.Fatalf("degraded_full counter = %d, want 1", got)
	}
	code, body, _ = get(t, hs.URL+"/pointsto?var=v6")
	if code != 200 {
		t.Fatalf("post-degraded query: %d %s", code, body)
	}
	if got := attrValues(t, body, "heap"); len(got) != 1 || got[0] != "h3" {
		t.Fatalf("post-degraded answer = %v, want [h3]", got)
	}
	// The solver accepts further updates (still degraded here: the 1ns
	// budget applies to every update in this config).
	code, body = post(t, hs.URL+"/update", `{"add":{"vP0":[["v7","h2"]]}}`)
	if code != 200 {
		t.Fatalf("follow-up update: %d %s", code, body)
	}
	code, body, _ = get(t, hs.URL+"/pointsto?var=v7")
	if code != 200 {
		t.Fatalf("follow-up query: %d %s", code, body)
	}
	if got := attrValues(t, body, "heap"); fmt.Sprint(got) != "[h2]" {
		t.Fatalf("follow-up answer = %v, want [h2]", got)
	}
}
