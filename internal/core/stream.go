package core

// The emitting collection seam: CollectShardEmit is the primitive the
// whole-shard collector (CollectShardProfiles) is built on, and the one
// the streaming pipeline taps directly. It yields every Config.Batch
// measured runs as a profile *window* the moment the last of them is
// read, instead of only at shard end — which is what lets an online
// consumer score observations (and stop a campaign) mid-shard with
// bounded memory.

import (
	"context"
	"fmt"

	"repro/internal/hpc"
	"repro/internal/obs"
)

// Window is a run of consecutive observations of a single shard, in run
// order: Profiles[i] is the profile of global run index Start+i of
// class Class. Windows of one shard are emitted in ascending Start
// order and hold Config.Batch runs each (shorter on the shard's tail),
// so the window sequence depends only on the shard plan and the window
// size — never on who executes the shard.
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
// one counter interval per run — see CollectShardProfiles) and calls
// emit once per window, in run order. The emitted Window aliases
// per-shard scratch; emit must copy what it keeps. A non-nil error from
// emit aborts the shard and is returned verbatim, so a consumer can
// stop a campaign mid-shard with a sentinel. The context is checked
// between windows.
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
	scratch := make([]hpc.Profile, ev.cfg.Batch)
	for i := range scratch {
		scratch[i] = make(hpc.Profile, len(ev.cfg.Events))
	}
	return ev.emitWindows(ctx, pmu, &shardRun{target: target}, sh, scratch, emit)
}

// emitWindows is the measured emission loop of CollectShardEmit: each
// run is measured in its own counter interval into its window slot of
// the reused scratch, and every full window (or the shard's tail) is
// emitted. It is the per-window emission hot path: it reuses the
// preallocated scratch profiles, so nothing on the steady-state path
// may allocate (the core allocgate pins it).
//
//detlint:allocpath
func (ev *Evaluator) emitWindows(ctx context.Context, pmu *hpc.PMU, r *shardRun, sh Shard, scratch []hpc.Profile, emit func(Window) error) error {
	end := sh.Start + sh.Count
	for run := sh.Start; run < end; run += len(scratch) {
		if err := ctx.Err(); err != nil {
			return err
		}
		n := min(len(scratch), end-run)
		for i := 0; i < n; i++ {
			r.img = sh.Pool[(run+i)%len(sh.Pool)]
			if err := pmu.MeasureOnceInto(scratch[i], r.classify); err != nil {
				return err
			}
			if r.err != nil {
				return fmt.Errorf("core: classification failed: %w", r.err)
			}
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
