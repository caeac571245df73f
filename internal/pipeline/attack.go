package pipeline

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/hpc"
	"repro/internal/obs"
	"repro/internal/tensor"
)

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
// byClass[class][run] — the attack stages' counterpart of Collect: the
// same shard units, fresh per-shard targets and derived seeds, merged by
// (class, run) offset, so the observation for run r of class c is
// identical at any worker count. Shard workers deploy
// factory(shard.Class, shard.Seed), so each class's observations can come
// from a different victim (a different model architecture).
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
	collect := rec.Span("pipeline", "collect")
	parts := make([][]hpc.Profile, len(shards))
	err = p.forEach(ctx, len(shards), func(ctx context.Context, w, i int) error {
		sh := shards[i]
		sp := rec.ShardSpan(w, sh.Index, sh.Class)
		defer sp.End()
		target, err := factory(sh.Class, sh.Seed)
		if err != nil {
			return fmt.Errorf("pipeline: shard %d target: %w", sh.Index, err)
		}
		part, err := p.ev.CollectShardProfiles(ctx, target, sh)
		if err != nil {
			return err
		}
		parts[i] = part
		rec.Add(obs.CShardsDone, 1)
		return nil
	})
	collect.End()
	if err != nil {
		return nil, err
	}
	rec.SetPhase("merge")
	defer rec.Span("pipeline", "merge").End()
	byClass := map[int][]hpc.Profile{}
	for i, sh := range shards {
		if err := p.placeProfiles(byClass, PlanOf(sh), parts[i]); err != nil {
			return nil, err
		}
	}
	return byClass, nil
}
