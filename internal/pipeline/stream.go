package pipeline

// The Stream stage: ordered, bounded-memory delivery of profile windows
// to an incremental consumer. Collection still fans out over the worker
// pool — same shard plan, same fresh per-shard targets, same derived
// seeds as CollectProfilesByClass — but instead of buffering whole
// campaigns, each shard's windows flow through a small per-shard
// channel ring and are handed to the consumer in one deterministic
// global order:
//
//	shards ── produce (N workers, emit per window)
//	              │ per-shard ring, streamDepth windows
//	              ▼
//	         merge (caller goroutine, stream order) ── consume
//
// The stream order sorts shards by (start, class) — classes interleave
// every ShardRuns runs, so a sequential tester sees both sides of every
// class pair grow together instead of one class's full budget first.
// Windows hold core.Config.Batch runs each, so the consumed window
// sequence depends only on the plan and the window size: workers=1 and
// workers=N deliver bit-identical streams. Memory is bounded by
// workers × streamDepth × Batch profiles, independent of the trace
// budget.
//
// The consumer may end the campaign early by returning ErrStop — that
// cancels the in-flight producers and Stream reports stopped=true — and
// an external context cancellation surfaces as the typed Cancelled
// error, so callers can tell an aborted campaign from a completed one.

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/hpc"
	"repro/internal/march"
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

// wrapCancel converts a context error into the typed Cancelled error
// and passes every other error through.
func wrapCancel(stage string, err error) error {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return &Cancelled{Stage: stage, Err: err}
	}
	return err
}

// streamDepth is the number of windows buffered per shard stream: the
// producer may run at most this many windows ahead of the merger. 2
// keeps producers busy while the merger consumes without growing memory
// with the budget.
const streamDepth = 2

// shardStream is one shard's window ring: produced windows flow through
// win, consumed window buffers return through free for reuse. Both
// channels hold streamDepth entries, so neither side can run away.
type shardStream struct {
	win  chan core.Window
	free chan []hpc.Profile
}

// emit hands one window to the merger: it takes a recycled
// buffer, copies the window's observations into it (the core scratch
// must not escape the producer), and sends the copy. Cancellation is
// honored on both the buffer wait and the send, so a stopped campaign
// never deadlocks a producer. It is the per-window emission hot path:
// it recycles the streamDepth preallocated buffers, so nothing on the
// steady-state path may allocate (BenchmarkStreamEmit pins 0 allocs/op).
//
//detlint:allocpath
func (ss *shardStream) emit(ctx context.Context, events []march.Event, w core.Window) error {
	var buf []hpc.Profile
	select {
	case buf = <-ss.free:
	case <-ctx.Done():
		return ctx.Err()
	}
	for i, p := range w.Profiles {
		dst := buf[i]
		for _, e := range events {
			dst[e] = p.Get(e)
		}
	}
	w.Profiles = buf[:len(w.Profiles)]
	select {
	case ss.win <- w:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// produceShard runs one shard's collection and emits its windows into
// the shard's stream. The win channel is always closed on return, so
// the merger can detect shard completion (or abort) without extra
// signalling.
func (p *Pipeline) produceShard(ctx context.Context, w int, ss *shardStream, factory ClassTargetFactory, sh core.Shard) error {
	defer close(ss.win)
	sp := p.cfg.Obs.ShardSpan(w, sh.Index, sh.Class)
	defer sp.End()
	target, err := factory(sh.Class, sh.Seed)
	if err != nil {
		return fmt.Errorf("pipeline: shard %d target: %w", sh.Index, err)
	}
	cfg := p.ev.Config()
	for d := 0; d < streamDepth; d++ {
		buf := make([]hpc.Profile, cfg.Batch)
		for i := range buf {
			buf[i] = make(hpc.Profile, len(cfg.Events))
		}
		ss.free <- buf
	}
	return p.ev.CollectShardEmit(ctx, target, sh, func(w core.Window) error {
		return ss.emit(ctx, cfg.Events, w)
	})
}

// streamOrder returns shard indices in the global delivery order:
// ascending (start, class). Interleaving classes at every shard
// boundary is what lets an incremental tester compare class pairs long
// before the budget is exhausted.
func streamOrder(shards []core.Shard) []int {
	order := make([]int, len(shards))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		sa, sb := shards[order[a]], shards[order[b]]
		if sa.Start != sb.Start {
			return sa.Start < sb.Start
		}
		return sa.Class < sb.Class
	})
	return order
}

// Stream runs the campaign's collection as an ordered window stream:
// shards execute concurrently over the worker pool while consume is
// called — on the caller's goroutine — once per window, in the
// deterministic stream order. consume may return ErrStop to end the
// campaign early (Stream returns stopped=true, nil) or any other error
// to abort it. The windows passed to consume alias recycled buffers;
// the consumer must copy anything it keeps. An external cancellation
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
	stage := p.cfg.Obs.Span("pipeline", "stream")
	defer stage.End()
	order := streamOrder(shards)
	streams := make([]*shardStream, len(shards))
	for i := range streams {
		streams[i] = &shardStream{
			win:  make(chan core.Window, streamDepth),
			free: make(chan []hpc.Profile, streamDepth),
		}
	}

	streamCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Producers are fed to the pool in stream order, so the shards the
	// merger is waiting on are always the ones being executed: the
	// merger drains shard k completely before k+1, and jobs are handed
	// out in exactly that order — no worker can be parked on a shard
	// the merger won't reach.
	collectErr := make(chan error, 1)
	go func() {
		err := p.forEach(streamCtx, len(shards), func(ctx context.Context, w, i int) error {
			idx := order[i]
			if err := p.produceShard(ctx, w, streams[idx], factory, shards[idx]); err != nil {
				return err
			}
			p.cfg.Obs.Add(obs.CShardsDone, 1)
			return nil
		})
		cancel() // wake the merger if producers stopped without closing every stream
		collectErr <- err
	}()

	var consumeErr, cancelErr error
merge:
	for _, idx := range order {
		ss := streams[idx]
		for {
			var w core.Window
			var ok bool
			select {
			case w, ok = <-ss.win:
			case <-streamCtx.Done():
				// The context closes on failure or after every producer
				// returned; completed shards' remaining windows are
				// already buffered, so a non-blocking drain loses
				// nothing — an empty, unclosed stream means its
				// producer never ran.
				select {
				case w, ok = <-ss.win:
				default:
					break merge
				}
			}
			if !ok {
				continue merge
			}
			// A cancelled caller gets no further windows, even ones
			// already buffered by producers that finished first: the
			// campaign was aborted, not completed.
			if err := ctx.Err(); err != nil {
				cancelErr = err
				cancel()
				break merge
			}
			if cerr := consume(w); cerr != nil {
				if errors.Is(cerr, ErrStop) {
					stopped = true
				} else {
					consumeErr = cerr
				}
				cancel()
				break merge
			}
			ss.free <- w.Profiles[:cap(w.Profiles)]
		}
	}

	cErr := <-collectErr
	switch {
	case consumeErr != nil:
		return false, consumeErr
	case stopped:
		return true, nil
	case cancelErr != nil:
		return false, wrapCancel("stream collection", cancelErr)
	case cErr != nil:
		return false, wrapCancel("stream collection", cErr)
	default:
		return false, nil
	}
}
