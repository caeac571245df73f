package core

import (
	"context"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/hpc"
	"repro/internal/instrument"
	"repro/internal/march"
	"repro/internal/march/cache"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// buildTarget constructs a tiny instrumented classifier with a given noise
// seed and options (a negative seed disables measurement noise so tests
// assert on the structural signal alone). The hierarchy is scaled to the
// tiny test network the same way instrument.SimHierarchy is scaled to the
// paper's CNNs: small enough that the per-inference working set exceeds
// the LLC.
func buildTarget(t *testing.T, opts instrument.Options, noiseSeed int64) *instrument.Classifier {
	t.Helper()
	net, err := nn.Build(nn.Arch{Name: "tiny", InH: 12, InW: 12, InC: 1, Conv1: 4, Conv2: 4, Kernel: 3, Classes: 3}, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	h, err := cache.NewHierarchy(
		cache.Config{Name: "L1D", Size: 512, LineSize: 64, Assoc: 2, Policy: cache.TreePLRU},
		cache.Config{Name: "L2", Size: 1024, LineSize: 64, Assoc: 2, Policy: cache.TreePLRU},
		cache.Config{Name: "LLC", Size: 2048, LineSize: 64, Assoc: 4, Policy: cache.LRU},
	)
	if err != nil {
		t.Fatal(err)
	}
	var noise *march.NoiseModel
	if noiseSeed >= 0 {
		noise = march.DefaultNoise(noiseSeed)
	}
	eng, err := march.NewEngine(march.Config{
		Hierarchy: h,
		Noise:     noise,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := instrument.New(net, eng, opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// classImages makes a pool of jittered images whose sparsity depends on
// the class: class 0 sparse strokes, class 1 dense texture.
func classImages(class, n int, seed int64) []*tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*tensor.Tensor, n)
	for k := 0; k < n; k++ {
		img := tensor.New(12, 12, 1)
		density := 0.1
		if class == 1 {
			density = 0.9
		}
		for i := range img.Data {
			if rng.Float64() < density {
				img.Data[i] = 0.3 + rng.Float32()*0.7
			}
		}
		out[k] = img
	}
	return out
}

// collect runs a campaign's collection one class per shard, in class
// order, on the single given target: PlanShards, CollectShardProfiles,
// Distributions.
func collect(ev *Evaluator, target Target, perClass map[int][]*tensor.Tensor) (*Distributions, error) {
	shards, err := ev.PlanShards(perClass, 0, 0)
	if err != nil {
		return nil, err
	}
	byClass := make(map[int][]hpc.Profile, len(shards))
	for _, sh := range shards {
		if byClass[sh.Class], err = ev.CollectShardProfiles(context.Background(), target, sh); err != nil {
			return nil, err
		}
	}
	return ev.Distributions(byClass)
}

// evaluate runs collect, the pairwise tests and BuildReport: a whole
// campaign on one target.
func evaluate(ev *Evaluator, name string, target Target, perClass map[int][]*tensor.Tensor) (*Report, error) {
	d, err := collect(ev, target, perClass)
	if err != nil {
		return nil, err
	}
	tests, err := ev.Test(d)
	if err != nil {
		return nil, err
	}
	return ev.BuildReport(name, d, tests), nil
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if len(c.Events) != 2 || c.Events[0] != march.EvCacheMisses || c.Events[1] != march.EvBranches {
		t.Fatalf("default events = %v", c.Events)
	}
	if c.Alpha != 0.05 || c.RunsPerClass != 100 || c.WarmupRuns != 3 {
		t.Fatalf("defaults = %+v", c)
	}
	c = Config{WarmupRuns: -1}.withDefaults()
	if c.WarmupRuns != 0 {
		t.Fatalf("negative warmup not clamped: %d", c.WarmupRuns)
	}
}

func TestNewEvaluatorValidation(t *testing.T) {
	if _, err := NewEvaluator(Config{Events: march.AllEvents()}); err == nil {
		t.Fatal("8 events on 6 registers accepted")
	}
	if _, err := NewEvaluator(Config{Events: []march.Event{march.EvCycles, march.EvCycles}}); err == nil {
		t.Fatal("duplicate events accepted")
	}
	if _, err := NewEvaluator(Config{}); err != nil {
		t.Fatal(err)
	}
}

func TestCollectValidation(t *testing.T) {
	ev, _ := NewEvaluator(Config{RunsPerClass: 2, WarmupRuns: -1})
	target := buildTarget(t, instrument.Options{SparsitySkip: true}, 1)
	if _, err := collect(ev, nil, nil); err == nil {
		t.Fatal("nil target accepted")
	}
	if _, err := collect(ev, target, map[int][]*tensor.Tensor{0: classImages(0, 1, 1)}); err == nil {
		t.Fatal("single category accepted")
	}
	if _, err := collect(ev, target, map[int][]*tensor.Tensor{0: classImages(0, 1, 1), 1: nil}); err == nil {
		t.Fatal("empty pool accepted")
	}
}

func TestCollectShapes(t *testing.T) {
	ev, err := NewEvaluator(Config{RunsPerClass: 6, WarmupRuns: 1})
	if err != nil {
		t.Fatal(err)
	}
	target := buildTarget(t, instrument.Options{SparsitySkip: true}, 3)
	pools := map[int][]*tensor.Tensor{
		0: classImages(0, 3, 10),
		1: classImages(1, 3, 20),
	}
	d, err := collect(ev, target, pools)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Classes) != 2 || d.Classes[0] != 0 || d.Classes[1] != 1 {
		t.Fatalf("classes = %v", d.Classes)
	}
	for _, e := range d.Events {
		for _, cls := range d.Classes {
			if got := len(d.Get(e, cls)); got != 6 {
				t.Fatalf("%s class %d has %d samples, want 6", e, cls, got)
			}
		}
	}
	if d.Get(march.EvCycles, 0) != nil {
		t.Fatal("unprogrammed event has samples")
	}
	s := d.Summary(march.EvCacheMisses, 0)
	if s.N != 6 || s.Mean <= 0 {
		t.Fatalf("summary = %+v", s)
	}
}

func TestEvaluateRaisesAlarmForLeakyTarget(t *testing.T) {
	// Sparse vs dense inputs through sparsity-skipping kernels must be
	// distinguishable via cache-misses: the Evaluator must raise an alarm.
	ev, err := NewEvaluator(Config{RunsPerClass: 25, WarmupRuns: 2})
	if err != nil {
		t.Fatal(err)
	}
	target := buildTarget(t, instrument.Options{SparsitySkip: true, Runtime: instrument.NoRuntime()}, -1)
	pools := map[int][]*tensor.Tensor{
		0: classImages(0, 12, 100),
		1: classImages(1, 12, 200),
	}
	r, err := evaluate(ev, "leaky", target, pools)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Leaky() {
		t.Fatal("no alarm for a clearly leaky target")
	}
	cm := r.AlarmsFor(march.EvCacheMisses)
	if len(cm) == 0 {
		t.Fatal("cache-misses raised no alarm for sparse-vs-dense inputs")
	}
	if len(r.TestsFor(march.EvCacheMisses)) != 1 {
		t.Fatalf("expected 1 pair test, got %d", len(r.TestsFor(march.EvCacheMisses)))
	}
	if a := cm[0]; a.String() == "" || a.P >= 0.05 {
		t.Fatalf("alarm malformed: %+v", a)
	}
}

func TestEvaluateSameDistributionNoSystematicAlarm(t *testing.T) {
	// Two pools drawn from the same class distribution: the cache-miss
	// t-test must not reject (any rejection would be a ~5% false
	// positive; the fixed seeds make this deterministic and it passes).
	ev, err := NewEvaluator(Config{RunsPerClass: 20, WarmupRuns: 2})
	if err != nil {
		t.Fatal(err)
	}
	target := buildTarget(t, instrument.Options{SparsitySkip: true, Runtime: instrument.DefaultRuntime()}, 8)
	pools := map[int][]*tensor.Tensor{
		0: classImages(0, 10, 300),
		1: classImages(0, 10, 400), // same class, different draws
	}
	r, err := evaluate(ev, "null", target, pools)
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range r.TestsFor(march.EvCacheMisses) {
		if tt.Result.P < 0.01 {
			t.Fatalf("same-distribution pools strongly rejected: %+v", tt.Result)
		}
	}
}

func TestEvaluateConstantTimeDefenseQuietsCacheAlarms(t *testing.T) {
	// The countermeasure direction from the paper's conclusion: with
	// constant-footprint kernels the class signal disappears and the
	// cache-miss alarms must go quiet.
	ev, err := NewEvaluator(Config{RunsPerClass: 25, WarmupRuns: 2})
	if err != nil {
		t.Fatal(err)
	}
	target := buildTarget(t, instrument.Options{ConstantTime: true, Runtime: instrument.DefaultRuntime()}, 9)
	pools := map[int][]*tensor.Tensor{
		0: classImages(0, 12, 500),
		1: classImages(1, 12, 600),
	}
	r, err := evaluate(ev, "hardened", target, pools)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(r.AlarmsFor(march.EvCacheMisses)); n != 0 {
		for _, a := range r.AlarmsFor(march.EvCacheMisses) {
			t.Logf("unexpected: %s", a)
		}
		t.Fatalf("constant-time target still raised %d cache-miss alarms", n)
	}
}

func TestTestValidation(t *testing.T) {
	ev, _ := NewEvaluator(Config{})
	if _, err := ev.Test(nil); err == nil {
		t.Fatal("nil distributions accepted")
	}
	d := &Distributions{Classes: []int{0}}
	if _, err := ev.Test(d); err == nil {
		t.Fatal("single-class distributions accepted")
	}
}

func TestHolmCorrectionPopulated(t *testing.T) {
	ev, err := NewEvaluator(Config{RunsPerClass: 30, WarmupRuns: 1, HolmCorrection: true})
	if err != nil {
		t.Fatal(err)
	}
	target := buildTarget(t, instrument.Options{SparsitySkip: true, Runtime: instrument.NoRuntime()}, -1)
	pools := map[int][]*tensor.Tensor{
		0: classImages(0, 8, 700),
		1: classImages(1, 8, 800),
	}
	r, err := evaluate(ev, "holm", target, pools)
	if err != nil {
		t.Fatal(err)
	}
	anyHolm := false
	for _, tt := range r.TestsFor(march.EvCacheMisses) {
		if tt.HolmReject {
			anyHolm = true
		}
	}
	if !anyHolm {
		t.Fatal("Holm correction rejected nothing for a strongly leaky pair")
	}
}

func TestPairTestDistinguishable(t *testing.T) {
	pt := PairTest{}
	pt.Result.P = 0.03
	if !pt.Distinguishable(0.05) || pt.Distinguishable(0.01) {
		t.Fatal("Distinguishable thresholds wrong")
	}
}

func TestMethodString(t *testing.T) {
	if MethodWelch.String() != "welch-t" || MethodMannWhitney.String() != "mann-whitney-u" {
		t.Fatal("method names wrong")
	}
	if Method(9).String() != "method(9)" {
		t.Fatal("unknown method name wrong")
	}
}

func TestMannWhitneyMethodAgreesOnLeakyTarget(t *testing.T) {
	// The nonparametric extension must also flag the strongly leaky
	// sparse-vs-dense scenario.
	ev, err := NewEvaluator(Config{RunsPerClass: 25, WarmupRuns: 2, Method: MethodMannWhitney})
	if err != nil {
		t.Fatal(err)
	}
	target := buildTarget(t, instrument.Options{SparsitySkip: true, Runtime: instrument.NoRuntime()}, -1)
	pools := map[int][]*tensor.Tensor{
		0: classImages(0, 12, 100),
		1: classImages(1, 12, 200),
	}
	r, err := evaluate(ev, "mw", target, pools)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.AlarmsFor(march.EvCacheMisses)) == 0 {
		t.Fatal("Mann-Whitney raised no cache-miss alarm on a leaky target")
	}
	// DF is zero under the rank-sum test (no t distribution involved).
	for _, tt := range r.TestsFor(march.EvCacheMisses) {
		if tt.Result.DF != 0 {
			t.Fatalf("rank-sum test reported df %v", tt.Result.DF)
		}
	}
}

// TestDistributionsValidation: the one profile→distribution
// transposition must refuse incomplete observations instead of scoring
// zeros — a short class, a missing run, or a run missing a campaign event.
func TestDistributionsValidation(t *testing.T) {
	ev, err := NewEvaluator(Config{RunsPerClass: 2})
	if err != nil {
		t.Fatal(err)
	}
	full := func(v float64) hpc.Profile {
		return hpc.Profile{march.EvCacheMisses: v, march.EvBranches: 2 * v}
	}
	d, err := ev.Distributions(map[int][]hpc.Profile{3: {full(1), full(2)}, 1: {full(3), full(4)}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d.Classes, []int{1, 3}) || !reflect.DeepEqual(d.Get(march.EvBranches, 3), []float64{2, 4}) {
		t.Fatalf("transposition = %v %v", d.Classes, d.Samples)
	}
	cases := map[string]struct {
		byClass map[int][]hpc.Profile
		want    string
	}{
		"short class":   {map[int][]hpc.Profile{0: {full(1)}}, "class 0 has 1 profiles, want 2"},
		"missing run":   {map[int][]hpc.Profile{0: {full(1), nil}}, "class 0 run 1 missing"},
		"missing event": {map[int][]hpc.Profile{0: {full(1), {march.EvCacheMisses: 1}}}, "class 0 run 1 has no branches observation"},
	}
	for name, c := range cases {
		if _, err := ev.Distributions(c.byClass); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want it to contain %q", name, err, c.want)
		}
	}
}
