// Package pipeline is the concurrent, sharded execution engine for the
// paper's Evaluator. Profiling every (event, class) pair over hundreds of
// traces dominates evaluation wall-clock; this package fans that
// collection out over a pool of workers while keeping results bit-for-bit
// identical to a sequential run.
//
// # Architecture
//
//	shards ── collect (N workers, one engine per shard, whole shards)
//	       ── deliver (caller goroutine, fixed shard order)
//	       ├─ place by (class, run) ── core.Evaluator.Distributions
//	       │     ── test (batched) ── report
//	       └─ cut into windows (Stream) ── incremental consumer
//
// The campaign is split into deterministic shard units (core.PlanShards):
// contiguous run ranges of a single category. Each shard is executed on a
// *fresh* target built by the TargetFactory from the shard's derived seed
// — simulated march.Engines are stateful and must never be shared, so no
// engine is ever visible to two goroutines. Because every shard's noise
// and jitter streams are seeded from (rootSeed, class, start) alone,
// scheduling cannot influence observations: workers=1 and workers=N
// produce the same profiles, the same PairTests and the same Report.
//
// A shard produces exactly one thing: its per-run HPC profiles
// (core.Evaluator.CollectShardProfiles). One ordered executor
// (EachOrdered) runs every collection: it hands whole shards to the
// caller's goroutine in a fixed order — plan order for
// CollectProfilesByClass, (start, class) order for Stream. In-process,
// runShards runs each shard on it; shards may also run on worker
// processes (WirePlans, MergeEncoded, StreamFrom), whose coordinator
// (fabric.Coordinator.RunStream) dispatches them on the same executor.
// Either way the profiles land at their (class, run) offsets through one
// placement routine or are cut into windows by one cutter, and
// ReportFromProfiles turns them into distributions in the one place that
// does so. The pairwise hypothesis-test stage then batches the
// event×pair work items (core.TestJobs) across the same worker pool;
// results are written back by job index and finalized in deterministic
// order.
package pipeline

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/core"
	"repro/internal/hpc"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// TargetFactory builds a fresh, self-contained target — with its own
// simulated engine — for one shard. seed is the shard's derived RNG seed
// and must drive every source of randomness in the target (measurement
// noise, runtime jitter, defense dummy traffic) so that a shard's
// observations depend only on its seed, never on which worker runs it.
type TargetFactory func(seed int64) (core.Target, error)

// classAgnostic adapts a TargetFactory to the class-aware form the
// collection paths take: every class deploys the same victim.
func classAgnostic(f TargetFactory) ClassTargetFactory {
	return func(_ int, seed int64) (core.Target, error) { return f(seed) }
}

// DefaultShardRuns is the default maximum number of measured runs per
// shard. It balances scheduling granularity (more shards → better load
// balance across workers) against per-shard overhead (each shard pays a
// cold reset plus warm-up). It must stay fixed across worker counts: the
// shard plan, not the pool size, defines the observations.
const DefaultShardRuns = 50

// Config controls the pool.
type Config struct {
	// Workers is the number of concurrent collection goroutines;
	// 0 → runtime.GOMAXPROCS(0). Workers=1 is the sequential reference
	// execution of the same plan.
	Workers int
	// RootSeed derives every per-shard seed (default 1).
	RootSeed int64
	// ShardRuns bounds measured runs per shard (default DefaultShardRuns).
	// Changing it changes the shard plan and therefore the observations;
	// keep it fixed when comparing runs.
	ShardRuns int
	// Obs receives stage and shard spans plus progress counters. It is
	// observational output only: a nil recorder (the default) and an
	// armed one execute the identical shard plan and produce
	// byte-identical reports.
	Obs *obs.Recorder `json:"-"`
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.RootSeed == 0 {
		c.RootSeed = 1
	}
	if c.ShardRuns <= 0 {
		c.ShardRuns = DefaultShardRuns
	}
	return c
}

// Pipeline executes evaluation campaigns concurrently.
type Pipeline struct {
	ev  *core.Evaluator
	cfg Config
}

// New builds a pipeline around an evaluator.
func New(ev *core.Evaluator, cfg Config) (*Pipeline, error) {
	if ev == nil {
		return nil, fmt.Errorf("pipeline: nil evaluator")
	}
	return &Pipeline{ev: ev, cfg: cfg.withDefaults()}, nil
}

// planShards is the single planning call every stage goes through —
// CollectProfilesByClass, Stream and WirePlans all shard one
// campaign identically because they cannot plan any other way.
func (p *Pipeline) planShards(perClass map[int][]*tensor.Tensor) ([]core.Shard, error) {
	return p.ev.PlanShards(perClass, p.cfg.RootSeed, p.cfg.ShardRuns)
}

// ClassTargetFactory builds a fresh, self-contained target for one shard
// of the given class. It is the class-aware generalization of
// TargetFactory for campaigns where the class label selects *which victim
// is deployed* rather than which input it classifies — the architecture-
// fingerprinting scenario, where class c is model architecture c. The
// same contract applies: every source of randomness in the target must
// derive from seed alone.
type ClassTargetFactory func(class int, seed int64) (core.Target, error)

// CollectProfilesByClass fans the campaign's shard plan out over the
// worker pool and returns the labelled per-run HPC profiles,
// byClass[class][run] — the one collection product every stage consumes:
// the attack stages fit and score on it directly, and ReportFromProfiles
// transposes it into distributions. Each shard runs on a fresh target
// built via factory(shard.Class, shard.Seed), so each class's
// observations can come from a different victim (a different model
// architecture). Shards are delivered in plan order and placed at their
// (class, run) offsets, so the observation for run r of class c is
// identical at any worker count and independent of completion order. The
// first error (or ctx cancellation) stops all workers and is returned.
func (p *Pipeline) CollectProfilesByClass(ctx context.Context, factory ClassTargetFactory, perClass map[int][]*tensor.Tensor) (map[int][]hpc.Profile, error) {
	if factory == nil {
		return nil, fmt.Errorf("pipeline: nil target factory")
	}
	rec := p.cfg.Obs
	rec.SetPhase("plan")
	plan := rec.Span("pipeline", "plan")
	shards, err := p.planShards(perClass)
	plan.End()
	if err != nil {
		return nil, err
	}
	rec.Add(obs.CShardsPlanned, int64(len(shards)))
	rec.SetPhase("collect")
	defer rec.Span("pipeline", "collect").End()
	byClass := map[int][]hpc.Profile{}
	err = p.runShards(ctx, factory, shards, func(sh core.Shard, profs []hpc.Profile) error {
		return p.placeProfiles(byClass, PlanOf(sh), profs)
	})
	if err != nil {
		return nil, err
	}
	return byClass, nil
}

// runShards runs shards over the worker pool on the one ordered
// executor (EachOrdered): shards are handed out in slice order, and
// deliver gets each finished shard's profiles on the caller's goroutine,
// strictly in slice order. A deliver error cancels the outstanding
// shards and is returned verbatim; otherwise the first collection error
// is returned, or the context's error once the caller is cancelled.
func (p *Pipeline) runShards(ctx context.Context, factory ClassTargetFactory, shards []core.Shard, deliver func(core.Shard, []hpc.Profile) error) error {
	return EachOrdered(ctx, p.cfg.Workers, len(shards), func(ctx context.Context, w, k int) ([]hpc.Profile, error) {
		sh := shards[k]
		sp := p.cfg.Obs.ShardSpan(w, sh.Index, sh.Class)
		defer sp.End()
		target, err := factory(sh.Class, sh.Seed)
		if err != nil {
			return nil, fmt.Errorf("pipeline: shard %d target: %w", sh.Index, err)
		}
		profs, err := p.ev.CollectShardProfiles(ctx, target, sh)
		if err != nil {
			return nil, err
		}
		p.cfg.Obs.Add(obs.CShardsDone, 1)
		return profs, nil
	}, func(k int, profs []hpc.Profile) error {
		return deliver(shards[k], profs)
	})
}

// Test batches the pairwise hypothesis tests of collected distributions
// across the worker pool. Results are written back by job index and
// finalized (Holm correction per event) in the same deterministic order
// the sequential core.Evaluator.Test uses.
func (p *Pipeline) Test(ctx context.Context, d *core.Distributions) ([]core.PairTest, error) {
	jobs, err := core.TestJobs(d)
	if err != nil {
		return nil, err
	}
	// Aim for a few batches per worker so a slow batch cannot serialize
	// the stage, without paying per-job scheduling costs.
	batch := max(1, (len(jobs)+4*p.cfg.Workers-1)/(4*p.cfg.Workers))
	batches := (len(jobs) + batch - 1) / batch
	tests := make([]core.PairTest, len(jobs))
	p.cfg.Obs.SetPhase("test")
	stage := p.cfg.Obs.Span("pipeline", "test")
	defer stage.End()
	err = EachCtx(ctx, p.cfg.Workers, batches, func(ctx context.Context, w, b int) error {
		lo := b * batch
		hi := lo + batch
		if hi > len(jobs) {
			hi = len(jobs)
		}
		for _, j := range jobs[lo:hi] {
			if err := ctx.Err(); err != nil {
				return err
			}
			t, err := p.ev.RunTestJob(d, j)
			if err != nil {
				return err
			}
			tests[j.Index] = t
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p.ev.FinalizeTests(tests), nil
}

// Evaluate runs the full campaign — sharded profile collection, merge,
// transposition into distributions, batched pairwise tests — and
// assembles the report: CollectProfilesByClass followed by
// ReportFromProfiles, the same tail a fabric campaign's merged profiles
// take.
func (p *Pipeline) Evaluate(ctx context.Context, name string, factory TargetFactory, perClass map[int][]*tensor.Tensor) (*core.Report, error) {
	if factory == nil {
		return nil, fmt.Errorf("pipeline: nil target factory")
	}
	byClass, err := p.CollectProfilesByClass(ctx, classAgnostic(factory), perClass)
	if err != nil {
		return nil, err
	}
	return p.ReportFromProfiles(ctx, name, byClass)
}

// ReportFromProfiles scores labelled per-run profiles, byClass[class][run]:
// core.Evaluator.Distributions transposes them, the batched test stage
// runs every pair, and the report is assembled. It is the report tail of
// every campaign — in-process (Evaluate), fabric-collected or streamed to
// exhaustion — so all three produce byte-identical reports by
// construction.
func (p *Pipeline) ReportFromProfiles(ctx context.Context, name string, byClass map[int][]hpc.Profile) (*core.Report, error) {
	d, err := p.ev.Distributions(byClass)
	if err != nil {
		return nil, err
	}
	tests, err := p.Test(ctx, d)
	if err != nil {
		return nil, err
	}
	p.cfg.Obs.SetPhase("report")
	defer p.cfg.Obs.Span("pipeline", "report").End()
	return p.ev.BuildReport(name, d, tests), nil
}
