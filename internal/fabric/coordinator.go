package fabric

// The coordinator: owns a campaign's shard plans, feeds them to a
// Dispatcher (in-process or a shardworker ProcPool), journals every
// completion, and assembles the results strictly in plan order. All
// ordering and merge decisions live here, keyed by shard id — arrival
// order is deliberately unobservable, which is what makes processes=1
// and processes=N byte-identical.

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/obs"
	"repro/internal/pipeline"
)

// CampaignDigest binds a journal to a campaign: the canonical digest of
// the campaign spec bytes.
func CampaignDigest(spec []byte) string {
	return pipeline.PayloadDigest(spec)
}

// Coordinator runs shard plans through a dispatcher with journaled
// resumption.
type Coordinator struct {
	// Dispatcher executes the plans (a *ProcPool in production).
	Dispatcher pipeline.Dispatcher
	// Journal, when non-nil, is consulted before dispatching (journaled
	// shards are served from it without re-execution) and appended to
	// after every completed shard.
	Journal *Journal
	// Obs receives campaign progress telemetry: journal skips and
	// appends, shards completed. Observational output only — the plan
	// order, dispatch decisions and merged bytes ignore it.
	Obs *obs.Recorder
}

// Run executes every plan and returns the result payloads in plan order:
// payloads[i] belongs to plans[i], regardless of which worker finished
// first. It collects RunStream's deliveries, so it shares its pool,
// journal and failure handling: on the first failure the outstanding
// dispatches are cancelled and drained and that error is returned, and
// shards journaled before the failure remain journaled, so a rerun
// resumes rather than restarts.
func (c *Coordinator) Run(ctx context.Context, plans []pipeline.Plan) ([][]byte, error) {
	payloads := make([][]byte, len(plans))
	err := c.RunStream(ctx, plans, func(i int, payload []byte) error {
		payloads[i] = payload
		return nil
	})
	if err != nil {
		return nil, err
	}
	return payloads, nil
}

// RunStream executes every plan and delivers each result payload —
// strictly in plans-slice order, on the caller's goroutine — the moment
// it and all its predecessors are available, instead of assembling the
// whole campaign first. Journal-served shards are delivered without
// re-execution and completions are journaled exactly as Run journals
// them, so an interrupted streaming campaign resumes identically. A
// non-nil error from deliver cancels the outstanding dispatches, drains
// them, and is returned verbatim — the streaming monitor stops a
// campaign mid-flight by returning its stop sentinel here.
func (c *Coordinator) RunStream(ctx context.Context, plans []pipeline.Plan, deliver func(i int, payload []byte) error) error {
	ready := make([]chan []byte, len(plans))
	for i := range ready {
		ready[i] = make(chan []byte, 1)
	}
	var pending []int
	for i, pl := range plans {
		if c.Journal != nil {
			if p, ok := c.Journal.Payload(pl.Index); ok {
				ready[i] <- p
				c.Obs.Add(obs.CJournalSkips, 1)
				c.Obs.Add(obs.CShardsDone, 1)
				continue
			}
		}
		pending = append(pending, i)
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}
	if len(pending) > 0 {
		procs := c.Dispatcher.Procs()
		if procs < 1 {
			procs = 1
		}
		if procs > len(pending) {
			procs = len(pending)
		}
		jobs := make(chan int)
		for k := 0; k < procs; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range jobs {
					payload, err := c.Dispatcher.Dispatch(runCtx, plans[i])
					if err != nil {
						fail(fmt.Errorf("fabric: shard %d: %w", plans[i].Index, err))
						return
					}
					if c.Journal != nil {
						if err := c.Journal.Append(plans[i].Index, payload); err != nil {
							fail(err)
							return
						}
						c.Obs.Add(obs.CJournalAppends, 1)
					}
					c.Obs.Add(obs.CShardsDone, 1)
					ready[i] <- payload // cap 1: never blocks
				}
			}()
		}
		// Plans are fed in slice order, so the shards the deliverer is
		// waiting on are always the ones being executed.
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(jobs)
			for _, i := range pending {
				select {
				case jobs <- i:
				case <-runCtx.Done():
					return
				}
			}
		}()
	}

	var deliverErr error
stream:
	for i := range plans {
		var payload []byte
		select {
		case payload = <-ready[i]:
		case <-runCtx.Done():
			// A completed shard may have raced the cancellation: take it
			// if it is already buffered, otherwise stop delivering.
			select {
			case payload = <-ready[i]:
			default:
				break stream
			}
		}
		if err := deliver(i, payload); err != nil {
			deliverErr = err
			cancel()
			break
		}
	}
	wg.Wait()
	switch {
	case deliverErr != nil:
		return deliverErr
	case firstErr != nil:
		return firstErr
	default:
		return ctx.Err()
	}
}
