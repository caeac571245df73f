package core

// Allocation gate for the measured emission loop: emitWindows runs once
// per window for the whole campaign and measures every run into its
// window's reused scratch slot, so in steady state it must not allocate.

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

func TestEmitWindowsZeroAllocSteadyState(t *testing.T) {
	if raceinfo.Enabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	// Include the noise model: the steady-state guarantee must hold on
	// the exact configuration campaigns measure with.
	eng, err := march.NewEngine(march.Config{Noise: march.DefaultNoise(3)})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(Config{RunsPerClass: 10, Batch: 4})
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
	scratch := make([]hpc.Profile, ev.Config().Batch)
	for i := range scratch {
		scratch[i] = make(hpc.Profile, len(ev.Config().Events))
	}
	r := &shardRun{target: target}
	emit := func(Window) error { return nil }
	if allocs := testing.AllocsPerRun(100, func() {
		if err := ev.emitWindows(ctx, pmu, r, sh, scratch, emit); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("emitWindows steady state allocates %v/op, want 0", allocs)
	}
}
