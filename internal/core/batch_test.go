package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/hpc"
	"repro/internal/instrument"
)

// collectWithBatch runs one 7-run shard at the given window size on a
// fresh target (identical seed) and returns its profiles both as they
// are and transposed into distributions.
func collectWithBatch(t *testing.T, batch int) (*Distributions, []hpc.Profile) {
	t.Helper()
	const runs = 7
	target := buildTarget(t, instrument.Options{SparsitySkip: true, Runtime: instrument.DefaultRuntime()}, 5)
	ev, err := NewEvaluator(Config{RunsPerClass: runs, Batch: batch})
	if err != nil {
		t.Fatal(err)
	}
	pool := classImages(0, 3, 11)
	sh := Shard{Index: 0, Class: 0, Pool: pool, Start: 0, Count: runs, Seed: 1}
	profs, err := ev.CollectShardProfiles(context.Background(), target, sh)
	if err != nil {
		t.Fatal(err)
	}
	if len(profs) != runs {
		t.Fatalf("batch=%d: %d profiles, want %d", batch, len(profs), runs)
	}
	d, err := ev.Distributions(map[int][]hpc.Profile{sh.Class: profs})
	if err != nil {
		t.Fatal(err)
	}
	return d, profs
}

// TestCollectShardBatchInvariance: the shard collector must produce
// bit-identical observations at every window size (Config.Batch),
// including a tail window (7 runs at 3 → 3+3+1) and a window larger
// than the shard.
func TestCollectShardBatchInvariance(t *testing.T) {
	refD, refV := collectWithBatch(t, 1)
	for _, batch := range []int{3, 4, 16} {
		d, v := collectWithBatch(t, batch)
		if !reflect.DeepEqual(d.Samples, refD.Samples) {
			t.Errorf("batch=%d: distributions diverge from batch=1:\n%v\nvs\n%v", batch, d.Samples, refD.Samples)
		}
		if !reflect.DeepEqual(v, refV) {
			t.Errorf("batch=%d: CollectShardProfiles diverge from batch=1", batch)
		}
	}
}
