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
// whole campaign first. Plans run on the pipeline's ordered executor
// (pipeline.EachOrdered) over Procs() lanes, claimed in slice order, so
// the shards the deliverer waits on are always the ones being executed.
// A journaled shard is served from the journal without re-execution;
// any other is dispatched, then journaled, so an interrupted streaming
// campaign resumes identically. The first dispatch or journal failure
// cancels the outstanding dispatches, drains them and is returned. A
// non-nil error from deliver does the same and is returned verbatim —
// the streaming monitor stops a campaign mid-flight by returning its
// stop sentinel here. A dispatch error reads "fabric: shard N: cause":
// the coordinator is the one layer that names the shard, so dispatchers
// and workers report the cause alone.
func (c *Coordinator) RunStream(ctx context.Context, plans []pipeline.Plan, deliver func(i int, payload []byte) error) error {
	return pipeline.EachOrdered(ctx, max(c.Dispatcher.Procs(), 1), len(plans), func(ctx context.Context, _, i int) ([]byte, error) {
		pl := plans[i]
		if c.Journal != nil {
			if payload, ok := c.Journal.Payload(pl.Index); ok {
				c.Obs.Add(obs.CJournalSkips, 1)
				c.Obs.Add(obs.CShardsDone, 1)
				return payload, nil
			}
		}
		payload, err := c.Dispatcher.Dispatch(ctx, pl)
		if err != nil {
			return nil, fmt.Errorf("fabric: shard %d: %w", pl.Index, err)
		}
		if c.Journal != nil {
			if err := c.Journal.Append(pl.Index, payload); err != nil {
				return nil, err
			}
			c.Obs.Add(obs.CJournalAppends, 1)
		}
		c.Obs.Add(obs.CShardsDone, 1)
		return payload, nil
	}, deliver)
}
