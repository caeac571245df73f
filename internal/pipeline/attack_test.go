package pipeline

import (
	"context"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/instrument"
	"repro/internal/march"
	"repro/internal/march/cache"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// runAttack is the attack stage over a pipeline collection: labelled
// profiles, a positional profiling/attack split, then both attackers
// fitted and scored.
func runAttack(p *Pipeline, name string, factory TargetFactory, pools map[int][]*tensor.Tensor, profileRuns, k int) (*attack.Result, error) {
	byClass, err := p.CollectProfilesByClass(context.Background(), classAgnostic(factory), pools)
	if err != nil {
		return nil, err
	}
	profSet, atkSet, err := attack.Split(byClass, profileRuns)
	if err != nil {
		return nil, err
	}
	return attack.Evaluate(name, p.ev.Config().Events, profSet, atkSet, k)
}

// TestAttackDeterminismAcrossWorkerCounts is the attack stage's core
// guarantee: workers=1 and workers=8 must produce byte-identical confusion
// matrices and accuracies for the same root seed. Run with -race to verify
// no attacker or profile state is shared between workers.
func TestAttackDeterminismAcrossWorkerCounts(t *testing.T) {
	net := testNet(t)
	pools := testPools(3, 4)
	evCfg := core.Config{RunsPerClass: 18, WarmupRuns: 1}

	run := func(workers int) []byte {
		p := newPipeline(t, evCfg, Config{Workers: workers, RootSeed: 7, ShardRuns: 5})
		res, err := runAttack(p, "attack-determinism", testFactory(t, net), pools, 12, 3)
		if err != nil {
			t.Fatal(err)
		}
		if res.ProfileRuns != 12 || res.AttackRuns != 6 {
			t.Fatalf("split = %d/%d, want 12/6", res.ProfileRuns, res.AttackRuns)
		}
		if res.Template.Total != 18 || res.KNN.Total != 18 { // 3 classes × 6 runs
			t.Fatalf("matrix totals = %d/%d, want 18", res.Template.Total, res.KNN.Total)
		}
		// Serialize the whole result so any divergence — matrix cell,
		// accuracy, template mean — fails the comparison.
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	seq := run(1)
	par := run(8)
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("attack results differ across worker counts:\n  workers=1: %s\n  workers=8: %s", seq, par)
	}
}

// TestAttackRepeatedRun guards against hidden global state: two identical
// pooled attack runs must agree with each other.
func TestAttackRepeatedRun(t *testing.T) {
	net := testNet(t)
	pools := testPools(2, 3)
	run := func() []byte {
		p := newPipeline(t, core.Config{RunsPerClass: 10, WarmupRuns: 1}, Config{Workers: 4, RootSeed: 3, ShardRuns: 4})
		res, err := runAttack(p, "attack-repeat", testFactory(t, net), pools, 6, 3)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("repeated attack runs diverged:\n  %s\n  %s", a, b)
	}
}

// TestAttackRootSeedChangesObservations: -seed must reseed the attack
// campaign's noise streams.
func TestAttackRootSeedChangesObservations(t *testing.T) {
	net := testNet(t)
	pools := testPools(2, 3)
	collect := func(seed int64) map[int][]float64 {
		p := newPipeline(t, core.Config{RunsPerClass: 8, WarmupRuns: 1}, Config{Workers: 2, RootSeed: seed})
		byClass, err := p.CollectProfilesByClass(context.Background(), classAgnostic(testFactory(t, net)), pools)
		if err != nil {
			t.Fatal(err)
		}
		flat := map[int][]float64{}
		for cls, profs := range byClass {
			for _, prof := range profs {
				for _, e := range prof.Events() {
					flat[cls] = append(flat[cls], prof.Get(e))
				}
			}
		}
		return flat
	}
	if reflect.DeepEqual(collect(1), collect(2)) {
		t.Fatal("root seed had no effect on attack observations")
	}
}

func TestAttackValidation(t *testing.T) {
	net := testNet(t)
	pools := testPools(2, 3)
	p := newPipeline(t, core.Config{RunsPerClass: 10, WarmupRuns: 0}, Config{Workers: 2, RootSeed: 1})
	if _, err := runAttack(p, "bad", testFactory(t, net), pools, 1, 3); err == nil {
		t.Fatal("profileRuns < 2 accepted")
	}
	if _, err := runAttack(p, "bad", testFactory(t, net), pools, 10, 3); err == nil {
		t.Fatal("profileRuns == RunsPerClass accepted (no held-out attack runs)")
	}
	if _, err := p.CollectProfilesByClass(context.Background(), nil, pools); err == nil {
		t.Fatal("nil factory accepted")
	}
}

// TestCollectProfilesByClass deploys a *different* victim per class — the
// architecture-fingerprinting shape, where the class label selects the
// model — and checks that every class's observations come from its own
// victim and that the result is worker-invariant.
func TestCollectProfilesByClass(t *testing.T) {
	// Three networks of clearly different size: per-class instruction
	// counts must order accordingly.
	nets := make([]*nn.Network, 3)
	for i, conv := range []int{2, 4, 8} {
		net, err := nn.Build(nn.Arch{Name: "tiny", InH: 12, InW: 12, InC: 1,
			Conv1: conv, Conv2: conv, Kernel: 3, Classes: 3}, rand.New(rand.NewSource(int64(2+i))))
		if err != nil {
			t.Fatal(err)
		}
		nets[i] = net
	}
	factory := func(class int, seed int64) (core.Target, error) {
		h, err := cache.NewHierarchy(
			cache.Config{Name: "L1D", Size: 512, LineSize: 64, Assoc: 2, Policy: cache.TreePLRU},
			cache.Config{Name: "L2", Size: 1024, LineSize: 64, Assoc: 2, Policy: cache.TreePLRU},
			cache.Config{Name: "LLC", Size: 2048, LineSize: 64, Assoc: 4, Policy: cache.LRU},
		)
		if err != nil {
			return nil, err
		}
		eng, err := march.NewEngine(march.Config{Hierarchy: h, Noise: march.DefaultNoise(seed)})
		if err != nil {
			return nil, err
		}
		return instrument.New(nets[class], eng, instrument.Options{SparsitySkip: true, Seed: seed})
	}
	// Every class observes the *same* input pool: the only difference
	// between classes is the deployed architecture.
	shared := classImages(1, 4, 100)
	pools := map[int][]*tensor.Tensor{0: shared, 1: shared, 2: shared}
	evCfg := core.Config{Events: []march.Event{march.EvInstructions}, RunsPerClass: 10, WarmupRuns: 1}

	run := func(workers int) map[int][]float64 {
		p := newPipeline(t, evCfg, Config{Workers: workers, RootSeed: 11, ShardRuns: 4})
		byClass, err := p.CollectProfilesByClass(context.Background(), factory, pools)
		if err != nil {
			t.Fatal(err)
		}
		out := map[int][]float64{}
		for cls, profs := range byClass {
			for _, prof := range profs {
				out[cls] = append(out[cls], prof.Get(march.EvInstructions))
			}
		}
		return out
	}
	seq := run(1)
	par := run(8)
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("class-aware collection differs across worker counts:\n  workers=1: %v\n  workers=8: %v", seq, par)
	}
	mean := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	m0, m1, m2 := mean(seq[0]), mean(seq[1]), mean(seq[2])
	if !(m0 < m1 && m1 < m2) {
		t.Fatalf("per-class instruction means not ordered by architecture size: %v %v %v", m0, m1, m2)
	}
	if _, err := newPipeline(t, evCfg, Config{}).CollectProfilesByClass(context.Background(), nil, pools); err == nil {
		t.Fatal("nil class factory accepted")
	}
}
