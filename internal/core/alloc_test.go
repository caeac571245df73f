package core

// Allocation gate for the measured loop: measureRuns runs once per
// measured classification for the whole campaign and measures every run
// into its shard's preallocated profile, so it must not allocate.

import (
	"context"
	"testing"

	"repro/internal/hpc"
	"repro/internal/march"
	"repro/internal/raceinfo"
	"repro/internal/tensor"
)

// opsTarget is a Target whose classification is a fixed burst of
// simulated instructions — enough to move the counters, nothing that
// allocates.
type opsTarget struct{ eng *march.Engine }

func (o *opsTarget) Classify(*tensor.Tensor) (int, error) {
	o.eng.Ops(100)
	return 0, nil
}

func (o *opsTarget) Engine() *march.Engine { return o.eng }

func TestMeasureRunsZeroAllocSteadyState(t *testing.T) {
	if raceinfo.Enabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	// Include the noise model: the steady-state guarantee must hold on
	// the exact configuration campaigns measure with.
	eng, err := march.NewEngine(march.Config{Noise: march.DefaultNoise(3)})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(Config{RunsPerClass: 10})
	if err != nil {
		t.Fatal(err)
	}
	target := &opsTarget{eng: eng}
	sh := Shard{Pool: []*tensor.Tensor{tensor.New(1)}, Count: 10}
	ctx := context.Background()
	pmu, err := ev.prepareShard(ctx, target, sh)
	if err != nil {
		t.Fatal(err)
	}
	profs := make([]hpc.Profile, sh.Count)
	for i := range profs {
		profs[i] = make(hpc.Profile, len(ev.Config().Events))
	}
	r := &shardRun{target: target}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := ev.measureRuns(ctx, pmu, r, sh, profs); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("measureRuns steady state allocates %v/op, want 0", allocs)
	}
}
