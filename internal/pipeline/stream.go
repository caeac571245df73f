package pipeline

// The Stream stage: ordered delivery of profile windows to an
// incremental consumer. Collection runs on the package's one ordered
// executor (EachOrdered, via runShards) — same shard plan, same fresh
// per-shard targets, same derived seeds as CollectProfilesByClass — and
// only the delivery order differs: whole shards reach the caller's goroutine in stream order,
// and each is cut into windows there:
//
//	shards ── collect (N workers, whole shards, fed in stream order)
//	              │ one 1-slot ready channel per shard
//	              ▼
//	         deliver (caller goroutine, stream order)
//	              │ cutWindows: Batch runs per window, shorter tail
//	              ▼
//	         consume
//
// The stream order sorts shards by (start, class) — classes interleave
// every ShardRuns runs, so a sequential tester sees both sides of every
// class pair grow together instead of one class's full budget first.
// Windows hold core.Config.Batch runs each, so the consumed window
// sequence depends only on the plan and the window size: workers=1 and
// workers=N deliver bit-identical streams, and a fabric stream
// (StreamFrom) cuts its decoded payloads with the same function. A
// consumer sees a shard's windows only once the whole shard has
// finished, so an early stop may come up to one shard per worker later
// in wall time than the windows alone would need; what it sees does not
// change.
//
// The consumer may end the campaign early by returning ErrStop — that
// cancels the in-flight shards and Stream reports stopped=true — and
// an external context cancellation surfaces as the typed Cancelled
// error, so callers can tell an aborted campaign from a completed one.

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/hpc"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// ErrStop is the sentinel a stream consumer returns to end the campaign
// early. Stream cancels the remaining producers, reports stopped=true
// and returns a nil error.
var ErrStop = errors.New("pipeline: stream consumer stopped")

// Cancelled is the typed error for a campaign aborted by context
// cancellation, as opposed to one that ran its budget to exhaustion —
// the CLI layer distinguishes the two when deciding what a missing
// detection means. It wraps the underlying context error, so
// errors.Is(err, context.Canceled) still works.
type Cancelled struct {
	// Stage names the pipeline stage that was interrupted.
	Stage string
	// Err is the underlying context error.
	Err error
}

// Error formats the cancellation with its stage.
func (c *Cancelled) Error() string { return fmt.Sprintf("pipeline: %s cancelled: %v", c.Stage, c.Err) }

// Unwrap exposes the underlying context error to errors.Is/As.
func (c *Cancelled) Unwrap() error { return c.Err }

// streamOrder returns the shards in the global delivery order:
// ascending (start, class). Interleaving classes at every shard
// boundary is what lets an incremental tester compare class pairs long
// before the budget is exhausted.
func streamOrder(shards []core.Shard) []core.Shard {
	order := slices.Clone(shards)
	slices.SortFunc(order, func(a, b core.Shard) int {
		return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.Class, b.Class))
	})
	return order
}

// cutWindows is the one window cutter: it hands a delivered shard's
// profiles to consume as consecutive windows of Batch runs (shorter on
// the tail), in run order. Both in-process and fabric streams go through
// it, so they consume identical window sequences. A consumer error is
// returned verbatim, and once the caller's context is done no further
// window is handed out.
func (p *Pipeline) cutWindows(ctx context.Context, pl Plan, profs []hpc.Profile, consume func(core.Window) error) error {
	if len(profs) != pl.Count {
		return fmt.Errorf("pipeline: shard %d has %d profiles, want %d", pl.Index, len(profs), pl.Count)
	}
	batch := p.ev.Config().Batch
	for off := 0; off < len(profs); off += batch {
		if err := ctx.Err(); err != nil {
			return err
		}
		p.cfg.Obs.Add(obs.CWindowsEmitted, 1)
		w := core.Window{Shard: pl.Index, Class: pl.Class, Start: pl.Start + off, Profiles: profs[off:min(off+batch, len(profs))]}
		if err := consume(w); err != nil {
			return err
		}
	}
	return nil
}

// streamOutcome maps a stream's error to Stream's result: ErrStop is an
// early stop, a context error becomes *Cancelled for stage, and every
// other error passes through.
func streamOutcome(stage string, err error) (stopped bool, _ error) {
	switch {
	case errors.Is(err, ErrStop):
		return true, nil
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return false, &Cancelled{Stage: stage, Err: err}
	default:
		return false, err
	}
}

// Stream runs the campaign's collection as an ordered window stream:
// shards execute concurrently over the worker pool while consume is
// called — on the caller's goroutine — once per window, in the
// deterministic stream order. consume may return ErrStop to end the
// campaign early (Stream returns stopped=true, nil) or any other error
// to abort it (returned verbatim). Windows slice the shards' own
// profiles, so the consumer may keep them. An external cancellation
// surfaces as *Cancelled: once the caller's context is done, no further
// window is handed to consume.
func (p *Pipeline) Stream(ctx context.Context, factory ClassTargetFactory, perClass map[int][]*tensor.Tensor, consume func(core.Window) error) (stopped bool, err error) {
	if factory == nil {
		return false, fmt.Errorf("pipeline: nil target factory")
	}
	if consume == nil {
		return false, fmt.Errorf("pipeline: nil stream consumer")
	}
	shards, err := p.planShards(perClass)
	if err != nil {
		return false, err
	}
	p.cfg.Obs.Add(obs.CShardsPlanned, int64(len(shards)))
	p.cfg.Obs.SetPhase("stream")
	defer p.cfg.Obs.Span("pipeline", "stream").End()
	err = p.runShards(ctx, factory, streamOrder(shards), func(sh core.Shard, profs []hpc.Profile) error {
		return p.cutWindows(ctx, PlanOf(sh), profs, consume)
	})
	return streamOutcome("stream collection", err)
}

// StreamFrom is Stream over an external shard executor — the fabric's
// Coordinator.RunStream. run gets the campaign's wire plans in stream
// order and must call deliver with each plan's encoded result payload
// (EncodeProfiles form), strictly in that order, returning deliver's
// first error verbatim. Each payload is decoded and cut into windows
// exactly as Stream cuts an in-process shard, so consume sees the
// identical window sequence, and the result means what Stream's does.
func (p *Pipeline) StreamFrom(ctx context.Context, perClass map[int][]*tensor.Tensor, run func(ctx context.Context, plans []Plan, deliver func(i int, payload []byte) error) error, consume func(core.Window) error) (stopped bool, err error) {
	shards, err := p.planShards(perClass)
	if err != nil {
		return false, err
	}
	p.cfg.Obs.Add(obs.CShardsPlanned, int64(len(shards)))
	plans := plansOf(streamOrder(shards))
	err = run(ctx, plans, func(i int, payload []byte) error {
		profs, err := DecodeProfiles(payload)
		if err != nil {
			return fmt.Errorf("pipeline: shard %d: %w", plans[i].Index, err)
		}
		return p.cutWindows(ctx, plans[i], profs, consume)
	})
	return streamOutcome("fabric stream", err)
}
