package defense

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/hpc"
	"repro/internal/instrument"
	"repro/internal/march"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// batchInvarianceEvents is the profile the property test compares; cache
// misses and branches are the paper's base pair.
var batchInvarianceEvents = []march.Event{march.EvCacheMisses, march.EvBranches}

func batchInvarianceImages(n int, seed int64) []*tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	imgs := make([]*tensor.Tensor, n)
	for k := range imgs {
		img := tensor.New(12, 12, 1)
		for i := range img.Data {
			if rng.Float64() < 0.5 {
				img.Data[i] = rng.Float32()
			}
		}
		imgs[k] = img
	}
	return imgs
}

// TestBatchInvarianceAcrossZooAndLevels is the window-size invariance
// property on hardened targets: for every architecture in the default
// zoo at every defense level, collecting a shard through the core
// evaluator at window sizes (core.Config.Batch) 1, 3 and 4 must produce
// per-run profiles bit-identical to N sequential MeasureOnceInto
// intervals over Classify on a fresh target — including the defenses
// whose per-input actions are RNG-driven (noise injection) or applied
// after every inference (padded envelope). A fresh engine/target per
// variant keeps the noise, jitter and defense RNG streams aligned, so
// the comparison also pins every zoo architecture × level to classify
// deterministically.
func TestBatchInvarianceAcrossZooAndLevels(t *testing.T) {
	zoo, err := nn.DefaultZoo(12, 12, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	specs := zoo.Infos()
	nets := make([]*nn.Network, len(specs))
	for _, s := range specs {
		if nets[s.ID], err = zoo.Build(s.ID, int64(300+s.ID)); err != nil {
			t.Fatal(err)
		}
	}
	imgs := batchInvarianceImages(4, 41)
	env, err := NewEnvelope(nets, imgs[0], 0)
	if err != nil {
		t.Fatal(err)
	}

	newTarget := func(t *testing.T, net *nn.Network, idx int, level Level) *Hardened {
		t.Helper()
		eng, err := march.NewEngine(march.Config{
			Hierarchy: instrument.SimHierarchy(),
			Noise:     march.DefaultNoise(77),
		})
		if err != nil {
			t.Fatal(err)
		}
		h, err := New(net, eng, Config{
			Level:         level,
			Seed:          13,
			Runtime:       instrument.DefaultRuntime(),
			Envelope:      env,
			EnvelopeIndex: idx,
		})
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	shard := core.Shard{Pool: imgs, Count: len(imgs), Seed: 1}

	levels := []Level{Baseline, DenseExecution, ConstantTime, NoiseInjection, PaddedEnvelope}
	for _, s := range specs {
		for _, level := range levels {
			s, level := s, level
			t.Run(s.Name+"/"+level.String(), func(t *testing.T) {
				// Reference: N sequential single-run measure intervals on a
				// cold core, the discipline the evaluator applies without
				// warm-up.
				seqT := newTarget(t, nets[s.ID], s.ID, level)
				seqPMU, err := hpc.NewPMU(seqT.Engine(), hpc.DefaultCounters)
				if err != nil {
					t.Fatal(err)
				}
				if err := seqPMU.Program(batchInvarianceEvents...); err != nil {
					t.Fatal(err)
				}
				seqT.Engine().ColdReset()
				seqProfs := make([]hpc.Profile, len(imgs))
				for i, img := range imgs {
					img := img
					seqProfs[i] = make(hpc.Profile, len(batchInvarianceEvents))
					var classifyErr error
					work := func() { _, classifyErr = seqT.Classify(img) }
					if err := seqPMU.MeasureOnceInto(seqProfs[i], work); err != nil {
						t.Fatal(err)
					}
					if classifyErr != nil {
						t.Fatal(classifyErr)
					}
				}

				for _, window := range []int{1, 3, 4} {
					ev, err := core.NewEvaluator(core.Config{
						Events:       batchInvarianceEvents,
						RunsPerClass: len(imgs),
						WarmupRuns:   -1,
						Batch:        window,
					})
					if err != nil {
						t.Fatal(err)
					}
					colT := newTarget(t, nets[s.ID], s.ID, level)
					profs, err := ev.CollectShardProfiles(context.Background(), colT, shard)
					if err != nil {
						t.Fatal(err)
					}
					for i := range imgs {
						for _, e := range batchInvarianceEvents {
							if profs[i][e] != seqProfs[i][e] {
								t.Errorf("window=%d input %d %s: collected %v, sequential %v", window, i, e, profs[i][e], seqProfs[i][e])
							}
						}
					}
					// The final counter state (pads, noise sweeps and jitter
					// included) matches the sequential target's bit-for-bit.
					if got, want := colT.Engine().Counts(), seqT.Engine().Counts(); !reflect.DeepEqual(got, want) {
						t.Fatalf("window=%d final counts diverge from sequential:\ncollected  %+v\nsequential %+v", window, got, want)
					}
				}
			})
		}
	}
}
