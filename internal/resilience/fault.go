package resilience

import "sync/atomic"

// Registered fault-point names. Each marks a place a run can be made
// to fail deterministically from tests: the BDD table growing, a
// stratum starting its evaluation, and the four stages of the live-update lifecycle (delta application,
// incremental re-solve, publishing to the replicas, generation swap).
const (
	FaultBDDGrow         = "bdd.grow"
	FaultStratumStart    = "stratum.start"
	FaultUpdateApply     = "update.apply"
	FaultUpdateResolve   = "update.resolve"
	FaultSnapshotHydrate = "snapshot.hydrate"
	FaultSnapshotSwap    = "snapshot.swap"
)

// faultHook holds the installed hook. The nil-hook fast path is one
// atomic pointer load, so production runs pay nothing measurable.
var faultHook atomic.Pointer[func(name string)]

// FaultPoint invokes the installed fault hook, if any, with the named
// point. Hooks injure the run on purpose: they may cancel a context,
// call Abort with a budget error, or panic outright — each exercising
// one failure path end-to-end. With no hook installed (the default,
// and always in production) this is a no-op.
func FaultPoint(name string) {
	if h := faultHook.Load(); h != nil {
		(*h)(name)
	}
}

// SetFaultHook installs fn as the process-wide fault hook and returns
// a restore function; nil uninstalls. Tests only:
//
//	defer resilience.SetFaultHook(func(name string) {
//		if name == resilience.FaultStratumStart {
//			resilience.Abort(&resilience.BudgetError{Resource: "nodes", Limit: 1, Used: 2})
//		}
//	})()
func SetFaultHook(fn func(name string)) (restore func()) {
	var p *func(name string)
	if fn != nil {
		p = &fn
	}
	old := faultHook.Swap(p)
	return func() { faultHook.Store(old) }
}
