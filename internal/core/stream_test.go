package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/instrument"
)

// TestCollectShardEmitMatchesBatchCollectors: the emitting seam must
// reproduce the batch collector's observations exactly — same values,
// same run order — and emit windows at exactly the window-size
// cadence (Config.Batch runs per window, shorter tail).
func TestCollectShardEmitMatchesBatchCollectors(t *testing.T) {
	const runs = 7
	for _, batch := range []int{1, 3, 16} {
		ev, err := NewEvaluator(Config{RunsPerClass: runs, Batch: batch})
		if err != nil {
			t.Fatal(err)
		}
		pool := classImages(0, 3, 11)
		sh := Shard{Index: 0, Class: 0, Pool: pool, Start: 0, Count: runs, Seed: 1}

		target := buildTarget(t, instrument.Options{SparsitySkip: true, Runtime: instrument.DefaultRuntime()}, 5)
		var starts []int
		var vecs [][]float64
		err = ev.CollectShardEmit(context.Background(), target, sh, func(w Window) error {
			if w.Shard != sh.Index || w.Class != sh.Class {
				t.Fatalf("batch=%d: window identity (%d,%d), want (%d,%d)", batch, w.Shard, w.Class, sh.Index, sh.Class)
			}
			starts = append(starts, w.Start)
			for _, p := range w.Profiles {
				vecs = append(vecs, p.Vector(ev.Config().Events))
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}

		wantStarts := []int(nil)
		for run := 0; run < runs; run += batch {
			wantStarts = append(wantStarts, run)
		}
		if !reflect.DeepEqual(starts, wantStarts) {
			t.Errorf("batch=%d: window starts %v, want %v", batch, starts, wantStarts)
		}

		target2 := buildTarget(t, instrument.Options{SparsitySkip: true, Runtime: instrument.DefaultRuntime()}, 5)
		profs, err := ev.CollectShardProfiles(context.Background(), target2, sh)
		if err != nil {
			t.Fatal(err)
		}
		want := make([][]float64, len(profs))
		for i, p := range profs {
			want[i] = p.Vector(ev.Config().Events)
		}
		if !reflect.DeepEqual(vecs, want) {
			t.Errorf("batch=%d: emitted observations diverge from CollectShardProfiles", batch)
		}
	}
}

// TestCollectShardEmitConsumerError: a consumer error aborts the shard
// and is returned verbatim, so sentinel-based early stopping works.
func TestCollectShardEmitConsumerError(t *testing.T) {
	ev, err := NewEvaluator(Config{RunsPerClass: 6, Batch: 2})
	if err != nil {
		t.Fatal(err)
	}
	target := buildTarget(t, instrument.Options{SparsitySkip: true, Runtime: instrument.DefaultRuntime()}, 5)
	sh := Shard{Index: 0, Class: 0, Pool: classImages(0, 3, 11), Start: 0, Count: 6, Seed: 1}
	sentinel := errors.New("stop now")
	emits := 0
	err = ev.CollectShardEmit(context.Background(), target, sh, func(Window) error {
		emits++
		if emits == 2 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the consumer's sentinel", err)
	}
	if emits != 2 {
		t.Fatalf("emit called %d times after sentinel, want 2", emits)
	}
}
