package pipeline

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hpc"
	"repro/internal/obs"
)

// streamKey flattens one consumed window into a comparable record.
type streamKey struct {
	Shard, Class, Start int
	Obs                 []hpc.Profile
}

// collectStream runs Stream over the standard small campaign at the
// given window size and returns the consumed window sequence.
func collectStream(t *testing.T, workers, batch int) []streamKey {
	t.Helper()
	p := newPipeline(t, core.Config{RunsPerClass: 12, WarmupRuns: 1, Batch: batch}, Config{Workers: workers, ShardRuns: 4})
	pools := testPools(3, 3)
	var seq []streamKey
	stopped, err := p.Stream(context.Background(), classAgnostic(testFactory(t, testNet(t))), pools, func(w core.Window) error {
		k := streamKey{Shard: w.Shard, Class: w.Class, Start: w.Start}
		k.Obs = append(k.Obs, w.Profiles...)
		seq = append(seq, k)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stopped {
		t.Fatal("run-to-exhaustion stream reported stopped")
	}
	return seq
}

// TestStreamDeterministicOrderAcrossWorkers: the consumed window
// sequence — identity, order and observations — must be bit-identical
// at any worker count, and must follow the (start, class) stream order
// with windows at the window-size cadence: Batch runs each, shorter on
// a shard's tail (4-run shards at batch 3 → 3+1). The observations are
// the same at every window size; only the cuts move.
func TestStreamDeterministicOrderAcrossWorkers(t *testing.T) {
	var refObs []hpc.Profile
	for _, batch := range []int{2, 3} {
		ref := collectStream(t, 1, batch)

		// Shard plan order is (class, start); stream order is (start,
		// class). Recompute the expected window identities from the plan
		// itself.
		var wantID []streamKey
		p := newPipeline(t, core.Config{RunsPerClass: 12, WarmupRuns: 1, Batch: batch}, Config{Workers: 1, ShardRuns: 4})
		shards, err := p.planShards(testPools(3, 3))
		if err != nil {
			t.Fatal(err)
		}
		for _, sh := range streamOrder(shards) {
			for run := sh.Start; run < sh.Start+sh.Count; run += batch {
				wantID = append(wantID, streamKey{Shard: sh.Index, Class: sh.Class, Start: run})
			}
		}
		if len(ref) != len(wantID) {
			t.Fatalf("batch=%d: %d windows consumed, want %d", batch, len(ref), len(wantID))
		}
		var flat []hpc.Profile
		for i, k := range ref {
			if k.Shard != wantID[i].Shard || k.Class != wantID[i].Class || k.Start != wantID[i].Start {
				t.Fatalf("batch=%d: window %d identity (%d,%d,%d), want (%d,%d,%d)",
					batch, i, k.Shard, k.Class, k.Start, wantID[i].Shard, wantID[i].Class, wantID[i].Start)
			}
			flat = append(flat, k.Obs...)
		}
		if refObs == nil {
			refObs = flat
		} else if !reflect.DeepEqual(flat, refObs) {
			t.Fatalf("batch=%d: observations diverge from batch=2", batch)
		}

		for _, workers := range []int{2, 8} {
			got := collectStream(t, workers, batch)
			if !reflect.DeepEqual(got, ref) {
				t.Fatalf("batch=%d workers=%d: stream diverges from workers=1", batch, workers)
			}
		}
	}
}

// signalWriter is a JSONL sink that signals every recorded event, so a
// test can wait on the recorder instead of polling it.
type signalWriter chan struct{}

func (s signalWriter) Write(p []byte) (int, error) {
	select {
	case s <- struct{}{}:
	default: // a signal is already pending; the waiter re-checks anyway
	}
	return len(p), nil
}

// TestStreamShardsRunAheadOfConsumer: a slow consumer must not park the
// workers. Two workers collect 4-run shards while the consumer holds
// its first window until both have finished a whole shard; a stream
// that let a producer run only a few windows ahead of the consumer
// would never get there.
func TestStreamShardsRunAheadOfConsumer(t *testing.T) {
	recorded := make(signalWriter, 1)
	rec := obs.New(obs.Config{JSONL: recorded})
	p := newPipeline(t, core.Config{RunsPerClass: 8, WarmupRuns: 1, Batch: 1}, Config{Workers: 2, ShardRuns: 4, Obs: rec})
	deadline := time.After(10 * time.Second)
	first := true
	_, err := p.Stream(context.Background(), classAgnostic(testFactory(t, testNet(t))), testPools(2, 3), func(core.Window) error {
		// A shard's span ends after its shards_done increment, so every
		// increment is followed by a recorded event.
		for first && rec.Get(obs.CShardsDone) < 2 {
			select {
			case <-recorded:
			case <-deadline:
				return fmt.Errorf("shards_done = %d after 10 s, want 2 while the first window is held", rec.Get(obs.CShardsDone))
			}
		}
		first = false
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestStreamMatchesBatchCollection: the streamed observations, placed
// at their (class, run) offsets, must equal CollectProfilesByClass's
// merge exactly — the stream is a re-ordering of the same campaign, not
// a different one.
func TestStreamMatchesBatchCollection(t *testing.T) {
	evCfg := core.Config{RunsPerClass: 12, WarmupRuns: 1, Batch: 2}
	cfg := Config{Workers: 2, ShardRuns: 4}
	pools := testPools(3, 3)
	net := testNet(t)

	p := newPipeline(t, evCfg, cfg)
	streamed := map[int][]hpc.Profile{}
	_, err := p.Stream(context.Background(), classAgnostic(testFactory(t, net)), pools, func(w core.Window) error {
		if streamed[w.Class] == nil {
			streamed[w.Class] = make([]hpc.Profile, p.ev.Config().RunsPerClass)
		}
		copy(streamed[w.Class][w.Start:], w.Profiles)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	p2 := newPipeline(t, evCfg, cfg)
	byClass, err := p2.CollectProfilesByClass(context.Background(), classAgnostic(testFactory(t, net)), pools)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(streamed, byClass) {
		t.Fatal("streamed observations diverge from batch collection")
	}
}

// TestStreamEarlyStop: ErrStop from the consumer ends the campaign
// without error, reports stopped=true, and does not deliver further
// windows.
func TestStreamEarlyStop(t *testing.T) {
	p := newPipeline(t, core.Config{RunsPerClass: 12, WarmupRuns: 1, Batch: 2}, Config{Workers: 4, ShardRuns: 4})
	consumed := 0
	stopped, err := p.Stream(context.Background(), classAgnostic(testFactory(t, testNet(t))), testPools(3, 3), func(core.Window) error {
		consumed++
		if consumed == 3 {
			return ErrStop
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !stopped {
		t.Fatal("ErrStop did not report stopped")
	}
	if consumed != 3 {
		t.Fatalf("consumed %d windows after stop, want 3", consumed)
	}
}

// TestStreamConsumerErrorAborts: a non-sentinel consumer error aborts
// the campaign and is returned verbatim.
func TestStreamConsumerErrorAborts(t *testing.T) {
	p := newPipeline(t, core.Config{RunsPerClass: 8, WarmupRuns: 1, Batch: 2}, Config{Workers: 2, ShardRuns: 4})
	boom := fmt.Errorf("scoring failed")
	stopped, err := p.Stream(context.Background(), classAgnostic(testFactory(t, testNet(t))), testPools(2, 3), func(core.Window) error {
		return boom
	})
	if stopped {
		t.Fatal("consumer error reported stopped")
	}
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the consumer's error", err)
	}
}

// TestStreamCancellationTyped: an external context cancellation must
// surface as the typed *Cancelled error — distinguishable at the CLI
// layer from a campaign that simply ran out of budget — while still
// satisfying errors.Is(err, context.Canceled).
func TestStreamCancellationTyped(t *testing.T) {
	p := newPipeline(t, core.Config{RunsPerClass: 20, WarmupRuns: 1, Batch: 2}, Config{Workers: 2, ShardRuns: 4})
	ctx, cancel := context.WithCancel(context.Background())
	consumed := 0
	_, err := p.Stream(ctx, classAgnostic(testFactory(t, testNet(t))), testPools(2, 3), func(core.Window) error {
		consumed++
		if consumed == 2 {
			cancel()
		}
		return nil
	})
	var c *Cancelled
	if !errors.As(err, &c) {
		t.Fatalf("err = %v (%T), want *Cancelled", err, err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("typed error does not unwrap to context.Canceled: %v", err)
	}
	if c.Stage == "" {
		t.Fatal("Cancelled.Stage empty")
	}
}
