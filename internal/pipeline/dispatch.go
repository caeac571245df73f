package pipeline

// The Dispatcher seam of the distributed audit fabric: a coordinator
// hands wire plans to a Dispatcher and gets back canonical result
// payloads, without caring where the shard ran. The shipped Dispatcher
// is internal/fabric.ProcPool, whose shardworker subprocesses execute
// plans through an Executor — the same CollectShardProfiles call an
// in-process CollectProfilesByClass makes — so moving a shard across a
// process boundary cannot change a single observed byte.

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/hpc"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// Dispatcher executes shard plans — possibly in another process — and
// returns each plan's canonical encoded result payload (EncodeProfiles
// form). Dispatch blocks until the result is available; implementations
// must be safe for concurrent Dispatch calls up to Procs().
type Dispatcher interface {
	Dispatch(ctx context.Context, plan Plan) ([]byte, error)
	// Procs is the dispatcher's concurrency capacity: how many Dispatch
	// calls may usefully be in flight at once.
	Procs() int
	Close() error
}

// Executor runs shard plans locally — the worker side of every
// dispatcher. It owns the campaign-constant state (evaluator
// configuration, class-aware target factory, per-class input pools) and
// rehydrates each pool-free plan into an executable shard.
type Executor struct {
	ev      *core.Evaluator
	factory ClassTargetFactory
	pools   map[int][]*tensor.Tensor
}

// NewExecutor builds a plan executor. The factory and pools must satisfy
// the same contracts as CollectProfilesByClass: every source of
// randomness in a target derives from the shard seed alone, and pools
// are keyed by class label.
func NewExecutor(ev *core.Evaluator, factory ClassTargetFactory, pools map[int][]*tensor.Tensor) (*Executor, error) {
	if ev == nil {
		return nil, fmt.Errorf("pipeline: nil evaluator")
	}
	if factory == nil {
		return nil, fmt.Errorf("pipeline: nil target factory")
	}
	if len(pools) == 0 {
		return nil, fmt.Errorf("pipeline: no class pools")
	}
	return &Executor{ev: ev, factory: factory, pools: pools}, nil
}

// Executor builds a plan executor sharing this pipeline's evaluator.
func (p *Pipeline) Executor(factory ClassTargetFactory, pools map[int][]*tensor.Tensor) (*Executor, error) {
	return NewExecutor(p.ev, factory, pools)
}

// SetObs attaches a telemetry recorder to the executor's evaluator.
// Fabric workers call this through the fabric.obsSettable seam once the
// init frame requests telemetry.
func (e *Executor) SetObs(r *obs.Recorder) { e.ev.SetObs(r) }

// Execute runs one plan and returns its per-run profiles. The plan is
// validated against the executor's campaign configuration first, so a
// coordinator/worker mismatch fails loudly instead of measuring garbage.
func (e *Executor) Execute(ctx context.Context, plan Plan) ([]hpc.Profile, error) {
	pool, ok := e.pools[plan.Class]
	if !ok {
		return nil, fmt.Errorf("pipeline: shard %d names unknown class %d", plan.Index, plan.Class)
	}
	if plan.Count <= 0 || plan.Start < 0 || plan.Start+plan.Count > e.ev.Config().RunsPerClass {
		return nil, fmt.Errorf("pipeline: shard %d runs [%d,%d) outside [0,%d)",
			plan.Index, plan.Start, plan.Start+plan.Count, e.ev.Config().RunsPerClass)
	}
	target, err := e.factory(plan.Class, plan.Seed)
	if err != nil {
		return nil, fmt.Errorf("pipeline: shard %d target: %w", plan.Index, err)
	}
	return e.ev.CollectShardProfiles(ctx, target, plan.Shard(pool))
}
