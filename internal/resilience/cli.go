package resilience

import (
	"context"
	"flag"
	"time"
)

// Flags bundles the resilience flags every command shares: -timeout
// and -max-nodes. Register them on a FlagSet, then build a Controller
// after flag parsing. Exit codes per failure class are ExitBudget (3),
// ExitCanceled (4), ExitInternal (5); see ExitCode.
type Flags struct {
	Timeout  time.Duration
	MaxNodes int
}

// Register installs the standard flags on fs.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.DurationVar(&f.Timeout, "timeout", 0, "wall-clock budget for the whole run, e.g. 5m (0 = none; exit code 3 when exceeded)")
	fs.IntVar(&f.MaxNodes, "max-nodes", 0, "max live BDD nodes before the run aborts (0 = unlimited; exit code 3)")
}

// Budget converts the flags into a Budget.
func (f *Flags) Budget() Budget {
	return Budget{MaxLiveNodes: f.MaxNodes, Timeout: f.Timeout}
}

// Controller builds the run's controller over ctx (nil when no limits
// are configured and ctx is plain).
func (f *Flags) Controller(ctx context.Context) *Controller {
	return NewController(ctx, f.Budget())
}
