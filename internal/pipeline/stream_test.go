package pipeline

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
)

// streamKey flattens one consumed window into a comparable record.
type streamKey struct {
	Shard, Class, Start int
	Obs                 []float64
}

// collectStream runs Stream over the standard small campaign and
// returns the consumed window sequence.
func collectStream(t *testing.T, workers int) []streamKey {
	t.Helper()
	p := newPipeline(t, core.Config{RunsPerClass: 12, WarmupRuns: 1, Batch: 2}, Config{Workers: workers, ShardRuns: 4})
	pools := testPools(3, 3)
	events := p.ev.Config().Events
	var seq []streamKey
	stopped, err := p.Stream(context.Background(), classAgnostic(testFactory(t, testNet(t))), pools, func(w core.Window) error {
		k := streamKey{Shard: w.Shard, Class: w.Class, Start: w.Start}
		for _, prof := range w.Profiles {
			k.Obs = append(k.Obs, prof.Vector(events)...)
		}
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
// with windows at the window-size cadence.
func TestStreamDeterministicOrderAcrossWorkers(t *testing.T) {
	ref := collectStream(t, 1)

	// Shard plan order is (class, start); stream order is (start, class);
	// batch 2 → 2 windows per shard. Recompute the expected window
	// identities from the plan itself.
	var wantID []streamKey
	p := newPipeline(t, core.Config{RunsPerClass: 12, WarmupRuns: 1, Batch: 2}, Config{Workers: 1, ShardRuns: 4})
	shards, err := p.planShards(testPools(3, 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range streamOrder(shards) {
		sh := shards[idx]
		for run := sh.Start; run < sh.Start+sh.Count; run += 2 {
			wantID = append(wantID, streamKey{Shard: sh.Index, Class: sh.Class, Start: run})
		}
	}
	if len(ref) != len(wantID) {
		t.Fatalf("%d windows consumed, want %d", len(ref), len(wantID))
	}
	for i, k := range ref {
		if k.Shard != wantID[i].Shard || k.Class != wantID[i].Class || k.Start != wantID[i].Start {
			t.Fatalf("window %d identity (%d,%d,%d), want (%d,%d,%d)",
				i, k.Shard, k.Class, k.Start, wantID[i].Shard, wantID[i].Class, wantID[i].Start)
		}
	}

	for _, workers := range []int{2, 8} {
		got := collectStream(t, workers)
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d: stream diverges from workers=1", workers)
		}
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
	events := p.ev.Config().Events
	streamed := map[int][][]float64{}
	_, err := p.Stream(context.Background(), classAgnostic(testFactory(t, net)), pools, func(w core.Window) error {
		if streamed[w.Class] == nil {
			streamed[w.Class] = make([][]float64, p.ev.Config().RunsPerClass)
		}
		for i, prof := range w.Profiles {
			streamed[w.Class][w.Start+i] = prof.Vector(events)
		}
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
	batch := map[int][][]float64{}
	for cls, profs := range byClass {
		batch[cls] = make([][]float64, len(profs))
		for i, prof := range profs {
			batch[cls][i] = prof.Vector(events)
		}
	}
	if !reflect.DeepEqual(streamed, batch) {
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
