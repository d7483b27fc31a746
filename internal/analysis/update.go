package analysis

import (
	"bddbddb/internal/datalog"
)

// Live wraps a completed analysis result's solver in the live-update
// lifecycle, for the daemon's POST /update: incremental re-solve of
// input-tuple deltas under a budget, degrading to an unbudgeted
// recompute of the affected strata when the budget trips
// (datalog.LiveSolver.Begin). The returned LiveSolver satisfies
// serve.Updater.
//
// Scope: deltas edit the *extracted input relations* (vP0, store,
// load, actual, mI, ...) of the program the result was solved with.
// For context-sensitive results the context numbering is the one
// computed at startup — a delta that adds call edges flows through the
// frozen IEC/vC materialization, matching what a from-scratch solve
// over the same materialization would compute, but it does not renumber
// contexts; re-run the full pipeline when the call-graph shape changes
// enough to matter. New element names arriving in deltas need spare
// domain capacity: size with Config.DomainSlack.
func Live(r *Result) (*datalog.LiveSolver, error) {
	return datalog.NewLiveSolver(r.Solver)
}
