package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"bddbddb/internal/datalog"
	"bddbddb/internal/obs"
	"bddbddb/internal/resilience"
)

// Updater is the serve layer's contract with the live solver it cuts
// snapshots from (satisfied by *datalog.LiveSolver). Begin applies a
// delta under a budget and leaves it uncommitted — Solver() then
// reflects the new fixpoint for snapshotting — and exactly one of
// Commit or Rollback finishes the update. The server calls all four
// from a single goroutine at a time (updates are serialized).
type Updater interface {
	Begin(ctl *resilience.Controller, wd datalog.WireDelta) (datalog.UpdateStats, error)
	Solver() *datalog.Solver
	Commit()
	Rollback()
}

// ErrUpdatesDisabled rejects /update when no Updater is configured
// (the daemon kept no live solver to apply deltas to).
var ErrUpdatesDisabled = errors.New("serve: live updates disabled (daemon started without an updater)")

// ErrUpdateInProgress rejects an update that would overlap another.
var ErrUpdateInProgress = errors.New("serve: another update is in progress")

// UpdateResult reports an applied update. Publish says how the new
// generation reached the replicas: "patch" (a delta dump read into the
// serving replicas) or "full" (a full snapshot hydrated into a new
// pool).
type UpdateResult struct {
	Generation  uint64              `json:"generation"`
	Fingerprint string              `json:"snapshot_fingerprint"`
	Publish     string              `json:"publish"`
	Stats       datalog.UpdateStats `json:"stats"`
	DurationSec float64             `json:"duration_sec"`
}

// maxPatchGrowth bounds the garbage patching pins: once the dump ids
// issued since the last full snapshot pass 1/maxPatchGrowth of its
// node count, the next update publishes in full. Every id names a node
// that the live solver's manager and every replica keep alive,
// whether or not a current relation still reaches it.
const maxPatchGrowth = 4

// ApplyUpdate runs the full live-update lifecycle: apply the delta to
// the live solver (incremental re-solve, degrading to an unbudgeted
// recompute of the affected strata on budget exhaustion), publish the
// new state to the replicas, and atomically swap it in as the next
// generation. Publishing normally patches the serving replicas in
// place: the nodes the update created are dumped as a delta, and each
// worker reads it between jobs and builds the new generation's
// relations and query base beside the serving ones. It falls back to a
// full snapshot hydrated into a new pool where patching cannot apply
// (see canPatch). In-flight requests finish on the generation they
// started on; the result cache is generation-keyed and flushed at the
// swap.
//
// Any failure — rejection, budget, fault injection, hydration error —
// leaves the server exactly on the previous generation: the solver
// rolls back, the new views or pool (if built) are torn down, and no
// request observes mixed state.
func (s *Server) ApplyUpdate(ctx context.Context, wd datalog.WireDelta) (UpdateResult, error) {
	if s.cfg.Updater == nil {
		return UpdateResult{}, ErrUpdatesDisabled
	}
	if s.draining.Load() {
		return UpdateResult{}, fmt.Errorf("serve: draining: %w", resilience.ErrCanceled)
	}
	select {
	case s.updateMu <- struct{}{}:
		defer func() { <-s.updateMu }()
	default:
		return UpdateResult{}, ErrUpdateInProgress
	}
	start := time.Now()
	res, err := s.applyUpdateLocked(ctx, wd)
	if err != nil {
		s.reg.Counter("serve.update.failed").Inc()
		return UpdateResult{}, err
	}
	res.DurationSec = time.Since(start).Seconds()
	s.reg.Counter("serve.update.applied").Inc()
	if res.Publish == "patch" {
		s.reg.Counter("serve.update.publish_patched").Inc()
	} else {
		s.reg.Counter("serve.update.publish_full").Inc()
	}
	if res.Stats.Full {
		s.reg.Counter("serve.update.degraded_full").Inc()
		s.reg.Histogram("serve.update.full_sec", obs.LatencyBuckets()).Observe(res.Stats.Duration.Seconds())
	} else {
		s.reg.Histogram("serve.update.incremental_sec", obs.LatencyBuckets()).Observe(res.Stats.Duration.Seconds())
	}
	return res, nil
}

func (s *Server) applyUpdateLocked(ctx context.Context, wd datalog.WireDelta) (UpdateResult, error) {
	up := s.cfg.Updater
	ctl := resilience.NewController(ctx, resilience.Budget{
		Timeout:      s.cfg.UpdateTimeout,
		MaxLiveNodes: s.cfg.UpdateMaxNodes,
	})
	stats, err := up.Begin(ctl, wd)
	if err != nil {
		// Begin leaves the solver rolled back on error by contract.
		return UpdateResult{}, err
	}
	old := s.current()
	var ng *generation
	publish, deltaNodes := "full", 0
	err = func() (err error) {
		defer resilience.Recover(&err)
		resilience.FaultPoint(resilience.FaultSnapshotHydrate)
		sv := up.Solver()
		if s.canPatch() {
			publish = "patch"
			ng, deltaNodes, err = s.publishPatch(sv, old)
		} else {
			ng, err = s.publishFull(sv, old.gen+1)
		}
		if err != nil {
			return err
		}
		resilience.FaultPoint(resilience.FaultSnapshotSwap)
		return nil
	}()
	if err != nil {
		if ng != nil {
			if ng.pool != old.pool {
				ng.pool.close()
			} else {
				ng.pool.dropViews(ng.gen)
			}
		}
		// The writer's ids may name nodes the replicas never read: the
		// next publish is full.
		s.dropWriter()
		up.Rollback()
		return UpdateResult{}, err
	}
	// Point of no return: swap the new generation in. Everything that
	// could fail already has; the swap itself is a pointer exchange.
	ng.pool.gens.Add(1)
	s.mu.Lock()
	s.cur = ng
	s.mu.Unlock()
	up.Commit()
	// Cache keys carry the generation, so stale entries can never be
	// served post-swap; the flush just reclaims their memory promptly.
	s.cache.Flush()
	s.gGeneration.Set(float64(ng.gen))
	if publish == "patch" {
		s.reg.Histogram("serve.update.delta_nodes", obs.SizeBuckets()).Observe(float64(deltaNodes))
	}
	s.retire(old, ng.pool != old.pool)
	return UpdateResult{
		Generation:  ng.gen,
		Fingerprint: ng.snap.Fingerprint(),
		Publish:     publish,
		Stats:       stats,
	}, nil
}

// canPatch reports whether the next generation can be published by
// patching the serving replicas: the writer must hold the ids the
// replicas hold (no publish failed since the last full one) and have
// issued at most 1/maxPatchGrowth of the last full dump's ids since it.
func (s *Server) canPatch() bool {
	return s.dw != nil && s.dw.Len()-s.fullIDs <= s.fullIDs/maxPatchGrowth
}

// publishFull snapshots sv in full through a new writer and hydrates a
// new pool for generation gen; the writer replaces the server's.
func (s *Server) publishFull(sv *datalog.Solver, gen uint64) (*generation, error) {
	w := sv.Universe().M.NewDAGWriter()
	snap, err := fullSnapshot(sv, w)
	if err == nil {
		var g *generation
		if g, err = s.buildPool(snap, gen); err == nil {
			s.dropWriter()
			s.dw, s.fullIDs = w, w.Len()
			return g, nil
		}
	}
	w.Release()
	return nil, err
}

// publishPatch cuts the patch from generation old to sv and has every
// worker of old's pool build the next generation's view from it. On
// failure no worker keeps a view of the new generation.
func (s *Server) publishPatch(sv *datalog.Solver, old *generation) (*generation, int, error) {
	snap, pt, err := old.snap.next(sv, s.dw)
	if err != nil {
		return nil, 0, err
	}
	p := old.pool
	ng := &generation{gen: old.gen + 1, snap: snap, pool: p}
	errs := make([]error, len(p.ctl))
	p.onWorkers(func(i int, v views) {
		errs[i] = func() (err error) {
			defer resilience.Recover(&err)
			rep, err := v[old.gen].patch(snap, pt)
			if err != nil {
				return err
			}
			v[ng.gen] = rep
			if i == 0 {
				ng.val = rep.Base
				ng.sh = shapeOf(rep.Base.HasRelation)
			}
			s.replicaGauges(i).push(rep)
			return nil
		}()
	})
	for i, err := range errs {
		if err != nil {
			p.dropViews(ng.gen)
			return nil, 0, fmt.Errorf("serve: patching replica %d: %w", i, err)
		}
	}
	return ng, pt.nodes, nil
}

// dropWriter releases the writer's references; the next publish is
// full.
func (s *Server) dropWriter() {
	if s.dw != nil {
		s.dw.Release()
		s.dw = nil
	}
}

// handleUpdate is POST /update: a JSON WireDelta body, applied through
// the full lifecycle. Success reports the new generation; failures map
// through the resilience taxonomy (422 rejected, 409 conflict, 429
// budget, 501 disabled).
func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, errorJSON{Error: "POST a JSON tuple delta", Class: "bad_query"})
		return
	}
	raw, err := io.ReadAll(io.LimitReader(r.Body, 8<<20))
	if err != nil {
		s.writeError(w, err)
		return
	}
	var wd datalog.WireDelta
	if err := json.Unmarshal(raw, &wd); err != nil {
		writeJSON(w, http.StatusBadRequest, errorJSON{Error: "bad delta JSON: " + err.Error(), Class: "bad_query", RequestID: requestID(w)})
		return
	}
	res, err := s.ApplyUpdate(r.Context(), wd)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}
