package core

// The emitting collection seam: CollectShardEmit is the primitive the
// batch collector (CollectShardProfiles) is built on, and the one the
// streaming pipeline taps directly. It yields each measured batch as a
// profile *window* the moment the batch's counters are recovered,
// instead of only at shard end — which is what lets an online consumer
// score observations (and stop a campaign) mid-shard with bounded
// memory.

import (
	"context"
	"fmt"

	"repro/internal/hpc"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// Window is one measured batch of a single shard's observations, in run
// order: Profiles[i] is the profile of global run index Start+i of
// class Class. Windows of one shard are emitted in ascending Start
// order; window boundaries are the shard's measured batches
// (Config.Batch runs each, shorter on the shard's tail), so the window
// sequence depends only on the shard plan and the batch size — never on
// who executes the shard.
type Window struct {
	// Shard is the emitting shard's plan index.
	Shard int
	// Class is the shard's category label.
	Class int
	// Start is the global run index (within Class) of Profiles[0].
	Start int
	// Profiles are the window's per-run observations. The slice and its
	// maps are scratch reused across emissions: consumers must copy any
	// values they keep beyond the emit call.
	Profiles []hpc.Profile
}

// CollectShardEmit executes one shard on target with the standard
// collection discipline (cold reset, warm-up on the shard's own pool,
// batched measurement — see CollectShardProfiles) and calls emit once
// per measured batch, in run order. The emitted Window aliases
// per-shard scratch; emit must copy what it keeps. A non-nil error from
// emit aborts the shard and is returned verbatim, so a consumer can
// stop a campaign mid-shard with a sentinel. The context is checked
// between batches.
func (ev *Evaluator) CollectShardEmit(ctx context.Context, target Target, sh Shard, emit func(Window) error) error {
	pmu, err := ev.prepareShard(ctx, target, sh)
	if err != nil {
		return err
	}
	if rec := ev.cfg.Obs; rec != nil {
		// Per-shard engine tally, flushed into the recorder when the
		// shard finishes. Attached after warm-up so only measured
		// operations count; detached before return so a pooled engine
		// never tallies into a stale shard.
		hot := &obs.HotCounters{}
		eng := target.Engine()
		eng.SetHotCounters(hot)
		defer func() {
			eng.SetHotCounters(nil)
			rec.FlushHot(hot)
		}()
	}
	batch := ev.cfg.Batch
	scratch := make([]hpc.Profile, batch)
	for i := range scratch {
		scratch[i] = make(hpc.Profile, len(ev.cfg.Events))
	}
	b := shardBatch{target: target, imgs: make([]*tensor.Tensor, batch)}
	return ev.emitWindows(ctx, pmu, &b, sh, scratch, emit)
}

// emitWindows is the measured emission loop of CollectShardEmit: one
// replay session per batch, per-run profiles recovered as
// counter-snapshot deltas into the reused scratch, one emit per window.
// It is the per-window emission hot path: it reuses the preallocated
// scratch profiles and image window, so nothing on the steady-state path
// may allocate (the stream allocgate pins it).
//
//detlint:allocpath
func (ev *Evaluator) emitWindows(ctx context.Context, pmu *hpc.PMU, b *shardBatch, sh Shard, scratch []hpc.Profile, emit func(Window) error) error {
	batch := len(scratch)
	for run := sh.Start; run < sh.Start+sh.Count; run += batch {
		if err := ctx.Err(); err != nil {
			return err
		}
		n := b.load(sh, run)
		if err := pmu.MeasureBatchInto(scratch[:n], b.work); err != nil {
			return err
		}
		if b.err != nil {
			return fmt.Errorf("core: classification failed: %w", b.err)
		}
		if err := emit(Window{Shard: sh.Index, Class: sh.Class, Start: run, Profiles: scratch[:n]}); err != nil {
			return err
		}
		// Nil-safe telemetry tallies: atomic adds, no allocation, no
		// effect on the emitted observations.
		ev.cfg.Obs.Add(obs.CWindowsEmitted, 1)
		ev.cfg.Obs.Add(obs.CProfilesCollected, int64(n))
	}
	return nil
}
