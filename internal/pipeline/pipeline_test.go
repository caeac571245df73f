package pipeline

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hpc"
	"repro/internal/instrument"
	"repro/internal/march"
	"repro/internal/march/cache"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// testNet builds the shared tiny CNN once; instrumented targets over it
// only read the weights, so it is safe to share across workers.
func testNet(tb testing.TB) *nn.Network {
	tb.Helper()
	net, err := nn.Build(nn.Arch{Name: "tiny", InH: 12, InW: 12, InC: 1, Conv1: 4, Conv2: 4, Kernel: 3, Classes: 3}, rand.New(rand.NewSource(2)))
	if err != nil {
		tb.Fatal(err)
	}
	return net
}

// testFactory builds fresh engine+classifier targets over the shared net.
// Every source of randomness (measurement noise, runtime jitter) is driven
// by the per-shard seed.
func testFactory(tb testing.TB, net *nn.Network) TargetFactory {
	tb.Helper()
	return func(seed int64) (core.Target, error) {
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
		return instrument.New(net, eng, instrument.Options{SparsitySkip: true, Runtime: instrument.DefaultRuntime(), Seed: seed})
	}
}

// classImages makes a pool of jittered images whose sparsity depends on
// the class, mirroring the per-category signal of the paper's datasets.
func classImages(class, n int, seed int64) []*tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*tensor.Tensor, n)
	for k := 0; k < n; k++ {
		img := tensor.New(12, 12, 1)
		density := 0.15 + 0.25*float64(class)
		for i := range img.Data {
			if rng.Float64() < density {
				img.Data[i] = 0.3 + rng.Float32()*0.7
			}
		}
		out[k] = img
	}
	return out
}

func testPools(classes, imgs int) map[int][]*tensor.Tensor {
	pools := map[int][]*tensor.Tensor{}
	for c := 0; c < classes; c++ {
		pools[c] = classImages(c, imgs, int64(100+c))
	}
	return pools
}

func newPipeline(tb testing.TB, evCfg core.Config, cfg Config) *Pipeline {
	tb.Helper()
	ev, err := core.NewEvaluator(evCfg)
	if err != nil {
		tb.Fatal(err)
	}
	p, err := New(ev, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Fatal("nil evaluator accepted")
	}
	p := newPipeline(t, core.Config{}, Config{})
	if p.cfg.Workers <= 0 || p.cfg.ShardRuns != DefaultShardRuns || p.cfg.RootSeed != 1 {
		t.Fatalf("defaults = %+v", p.cfg)
	}
	if _, err := p.Evaluate(context.Background(), "nil", nil, testPools(2, 3)); err == nil {
		t.Fatal("nil factory accepted")
	}
}

// TestDeterminismAcrossWorkerCounts is the pipeline's core guarantee:
// pooled and sequential executions of the same campaign produce identical
// reports — same alarms, bit-for-bit equal t statistics and p-values.
func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	net := testNet(t)
	pools := testPools(3, 4)
	evCfg := core.Config{RunsPerClass: 24, WarmupRuns: 1, HolmCorrection: true}

	run := func(workers int) *core.Report {
		p := newPipeline(t, evCfg, Config{Workers: workers, RootSeed: 7, ShardRuns: 8})
		rep, err := p.Evaluate(context.Background(), "determinism", testFactory(t, net), pools)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	seq := run(1)
	par := run(8)

	if len(seq.Tests) != len(par.Tests) {
		t.Fatalf("test counts differ: %d vs %d", len(seq.Tests), len(par.Tests))
	}
	for i := range seq.Tests {
		a, b := seq.Tests[i], par.Tests[i]
		if a.Event != b.Event || a.ClassA != b.ClassA || a.ClassB != b.ClassB {
			t.Fatalf("test %d identity differs: %+v vs %+v", i, a, b)
		}
		if a.Result.T != b.Result.T || a.Result.P != b.Result.P || a.EffectSize != b.EffectSize || a.HolmReject != b.HolmReject {
			t.Fatalf("test %d results differ:\n  workers=1: %+v\n  workers=8: %+v", i, a, b)
		}
	}
	if len(seq.Alarms) != len(par.Alarms) {
		t.Fatalf("alarm counts differ: %d vs %d", len(seq.Alarms), len(par.Alarms))
	}
	for i := range seq.Alarms {
		if seq.Alarms[i] != par.Alarms[i] {
			t.Fatalf("alarm %d differs: %+v vs %+v", i, seq.Alarms[i], par.Alarms[i])
		}
	}
	// The raw distributions must match sample-for-sample too.
	for _, e := range seq.Dists.Events {
		for _, cls := range seq.Dists.Classes {
			sa, sb := seq.Dists.Get(e, cls), par.Dists.Get(e, cls)
			if len(sa) != len(sb) {
				t.Fatalf("%s class %d: %d vs %d samples", e, cls, len(sa), len(sb))
			}
			for i := range sa {
				if sa[i] != sb[i] {
					t.Fatalf("%s class %d run %d: %v vs %v", e, cls, i, sa[i], sb[i])
				}
			}
		}
	}
}

// TestDeterminismRepeatedRun guards against hidden global state: two
// identical pooled runs must agree with each other.
func TestDeterminismRepeatedRun(t *testing.T) {
	net := testNet(t)
	pools := testPools(2, 3)
	evCfg := core.Config{RunsPerClass: 10, WarmupRuns: 1}
	run := func() *core.Report {
		p := newPipeline(t, evCfg, Config{Workers: 4, RootSeed: 3, ShardRuns: 5})
		rep, err := p.Evaluate(context.Background(), "repeat", testFactory(t, net), pools)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	for i := range a.Tests {
		if a.Tests[i].Result != b.Tests[i].Result {
			t.Fatalf("repeated run diverged at test %d: %+v vs %+v", i, a.Tests[i].Result, b.Tests[i].Result)
		}
	}
}

// TestRootSeedChangesObservations: different root seeds must reseed the
// noise streams (otherwise -seed on the CLI would be a no-op).
func TestRootSeedChangesObservations(t *testing.T) {
	net := testNet(t)
	pools := testPools(2, 3)
	evCfg := core.Config{RunsPerClass: 8, WarmupRuns: 1}
	collect := func(seed int64) map[int][]hpc.Profile {
		p := newPipeline(t, evCfg, Config{Workers: 2, RootSeed: seed})
		byClass, err := p.CollectProfilesByClass(context.Background(), classAgnostic(testFactory(t, net)), pools)
		if err != nil {
			t.Fatal(err)
		}
		return byClass
	}
	if reflect.DeepEqual(collect(1), collect(2)) {
		t.Fatal("root seed had no effect on observations")
	}
}

// TestConcurrentCollect exercises the pool under contention; run with
// -race to verify no engine or distribution state is shared between
// workers.
func TestConcurrentCollect(t *testing.T) {
	net := testNet(t)
	pools := testPools(4, 3)
	p := newPipeline(t, core.Config{RunsPerClass: 12, WarmupRuns: 1}, Config{Workers: 8, RootSeed: 11, ShardRuns: 3})
	byClass, err := p.CollectProfilesByClass(context.Background(), classAgnostic(testFactory(t, net)), pools)
	if err != nil {
		t.Fatal(err)
	}
	d, err := p.ev.Distributions(byClass)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range d.Events {
		for _, cls := range d.Classes {
			samples := d.Get(e, cls)
			if len(samples) != 12 {
				t.Fatalf("%s class %d: %d samples, want 12", e, cls, len(samples))
			}
			for i, v := range samples {
				if math.IsNaN(v) {
					t.Fatalf("%s class %d run %d: NaN sample", e, cls, i)
				}
			}
		}
	}
	if _, err := p.Test(context.Background(), d); err != nil {
		t.Fatal(err)
	}
}

// TestCancellation: a cancelled context must abort collection promptly
// with the context's error.
func TestCancellation(t *testing.T) {
	net := testNet(t)
	pools := testPools(4, 3)
	p := newPipeline(t, core.Config{RunsPerClass: 400, WarmupRuns: 0}, Config{Workers: 2, RootSeed: 5, ShardRuns: 100})

	// Already-cancelled context: immediate error, no work.
	pre, cancelPre := context.WithCancel(context.Background())
	cancelPre()
	var built atomic.Int32
	counting := func(seed int64) (core.Target, error) {
		built.Add(1)
		return testFactory(t, net)(seed)
	}
	if _, err := p.CollectProfilesByClass(pre, classAgnostic(counting), pools); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled collect returned %v, want context.Canceled", err)
	}
	if built.Load() != 0 {
		t.Fatalf("pre-cancelled collect built %d targets", built.Load())
	}

	// Mid-flight cancellation: cancel once the first target exists.
	ctx, cancel := context.WithCancel(context.Background())
	armed := make(chan struct{})
	var once atomic.Bool
	factory := func(seed int64) (core.Target, error) {
		if once.CompareAndSwap(false, true) {
			close(armed)
		}
		return testFactory(t, net)(seed)
	}
	go func() {
		<-armed
		cancel()
	}()
	start := time.Now()
	_, err := p.CollectProfilesByClass(ctx, classAgnostic(factory), pools)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled collect returned %v, want context.Canceled", err)
	}
	// 4 classes × 400 runs of this model take far longer than a second;
	// returning quickly shows the workers saw the cancellation mid-shard.
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

// TestFactoryErrorPropagates: a failing target factory must surface its
// error and stop the pool.
func TestFactoryErrorPropagates(t *testing.T) {
	net := testNet(t)
	pools := testPools(2, 3)
	p := newPipeline(t, core.Config{RunsPerClass: 10, WarmupRuns: 0}, Config{Workers: 4, RootSeed: 1, ShardRuns: 2})
	boom := fmt.Errorf("factory exploded")
	var calls atomic.Int32
	factory := func(seed int64) (core.Target, error) {
		if calls.Add(1) == 3 {
			return nil, boom
		}
		return testFactory(t, net)(seed)
	}
	if _, err := p.Evaluate(context.Background(), "boom", factory, pools); !errors.Is(err, boom) {
		t.Fatalf("collect returned %v, want wrapped factory error", err)
	}
}

// TestPipelineTestMatchesSequential: the batched test stage must agree
// with core.Evaluator.Test on the same distributions.
func TestPipelineTestMatchesSequential(t *testing.T) {
	net := testNet(t)
	pools := testPools(3, 4)
	ev, err := core.NewEvaluator(core.Config{RunsPerClass: 16, WarmupRuns: 1, HolmCorrection: true})
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(ev, Config{Workers: 4, RootSeed: 9})
	if err != nil {
		t.Fatal(err)
	}
	byClass, err := p.CollectProfilesByClass(context.Background(), classAgnostic(testFactory(t, net)), pools)
	if err != nil {
		t.Fatal(err)
	}
	d, err := ev.Distributions(byClass)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := ev.Test(d)
	if err != nil {
		t.Fatal(err)
	}
	par, err := p.Test(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) {
		t.Fatalf("test counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("test %d differs:\n  sequential: %+v\n  batched:    %+v", i, seq[i], par[i])
		}
	}
}

// BenchmarkCollect compares sequential and pooled collection on the
// acceptance workload (4 classes × 200 traces). On a multi-core machine
// workers=GOMAXPROCS should collect ≥2× faster than workers=1 while (see
// TestDeterminismAcrossWorkerCounts) producing an identical report.
func BenchmarkCollect(b *testing.B) {
	net := testNet(b)
	pools := testPools(4, 6)
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			p := newPipeline(b, core.Config{RunsPerClass: 200, WarmupRuns: 2}, Config{Workers: workers, RootSeed: 7})
			factory := classAgnostic(testFactory(b, net))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.CollectProfilesByClass(context.Background(), factory, pools); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
