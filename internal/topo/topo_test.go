package topo

import (
	"context"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/defense"
	"repro/internal/instrument"
	"repro/internal/march"
	"repro/internal/tensor"
)

// testInputs draws a small MNIST-like image pool shared by the campaign
// fixtures.
func testInputs(t *testing.T, n int) []*tensor.Tensor {
	t.Helper()
	_, test, err := dataset.MNISTLike(dataset.Config{PerClassTrain: 1, PerClassTest: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var out []*tensor.Tensor
	for _, s := range test.Samples {
		out = append(out, s.Image)
		if len(out) == n {
			break
		}
	}
	return out
}

func testConfig(t *testing.T, level defense.Level) Config {
	t.Helper()
	return Config{
		InH: 28, InW: 28, InC: 1, Classes: 10,
		Inputs:      testInputs(t, 6),
		Level:       level,
		TrainSize:   8,
		HoldoutSize: 6,
		Runs:        6,
		Workers:     2,
		Seed:        17,
	}
}

// runCampaign is the end-to-end single-session campaign the tests score:
// NewCampaign, one Collect of events (default instructions and L1-dcache-loads), then Score.
func runCampaign(cfg Config, events ...march.Event) (*Result, error) {
	if len(events) == 0 {
		events = []march.Event{march.EvInstructions, march.EvL1DLoads}
	}
	c, err := NewCampaign(cfg)
	if err != nil {
		return nil, err
	}
	byVictim, err := c.Collect(context.Background(), events, 0)
	if err != nil {
		return nil, err
	}
	return c.Score(events, byVictim)
}

func TestConfigValidation(t *testing.T) {
	if _, err := runCampaign(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := runCampaign(Config{InH: 28, InW: 28, InC: 1, Classes: 10}); err == nil {
		t.Fatal("config without inputs accepted")
	}
	ins := testInputs(t, 1)
	if _, err := runCampaign(Config{InH: 28, InW: 28, InC: 1, Classes: 10, Inputs: ins, TrainSize: 1}); err == nil {
		t.Fatal("single-member training zoo accepted")
	}
	if _, err := runCampaign(Config{InH: 28, InW: 28, InC: 1, Classes: 10, Inputs: ins, Runs: 1}); err == nil {
		t.Fatal("single measured run accepted")
	}
	if _, err := runCampaign(Config{InH: 28, InW: 28, InC: 1, Classes: 10, Inputs: ins}, march.ExtendedEvents()...); err == nil {
		t.Fatal("events beyond one register group accepted")
	}
}

// TestTrainHoldoutDisjoint: no held-out victim architecture may appear in
// the training zoo — the whole point of the scenario is reconstructing
// architectures the attacker never profiled.
func TestTrainHoldoutDisjoint(t *testing.T) {
	c, err := NewCampaign(testConfig(t, defense.Baseline))
	if err != nil {
		t.Fatal(err)
	}
	trained := c.trainZoo.Names()
	for name := range c.holdZoo.Names() {
		if trained[name] {
			t.Fatalf("victim architecture %q is in the training zoo", name)
		}
	}
	if c.trainZoo.Len() != 8 || c.holdZoo.Len() != 6 {
		t.Fatalf("zoo sizes %d/%d, want 8/6", c.trainZoo.Len(), c.holdZoo.Len())
	}
}

// TestSegmenterRecoversKnownBoundaries validates the change-point
// segmenter against the known-boundary attribution: on every held-out
// baseline victim, the recovered segment ends must equal the
// ground-truth layer boundaries sample-for-sample, and the per-segment
// kinds must follow the true layer stack.
func TestSegmenterRecoversKnownBoundaries(t *testing.T) {
	c, err := NewCampaign(testConfig(t, defense.Baseline))
	if err != nil {
		t.Fatal(err)
	}
	for id, net := range c.Nets {
		trace, err := extractTrace(net, c.cfg.Level, c.cfg.Inputs[0], c.cfg.Quantum)
		if err != nil {
			t.Fatal(err)
		}
		segs := SegmentTrace(trace.Samples)
		if got, want := boundariesOf(segs), trace.Boundaries; !reflect.DeepEqual(got, want) {
			t.Fatalf("victim %d: segment boundaries %v, attribution boundaries %v", id, got, want)
		}
		if len(segs) != len(trace.Kinds) {
			t.Fatalf("victim %d: %d segments for %d layers", id, len(segs), len(trace.Kinds))
		}
	}
}

// TestSegmentTraceDegenerate: the segmenter must survive the inputs the
// padded deployment produces.
func TestSegmentTraceDegenerate(t *testing.T) {
	if segs := SegmentTrace(nil); segs != nil {
		t.Fatalf("empty trace produced %d segments", len(segs))
	}
	// A homogeneous stream — identical samples — must yield one segment.
	var s march.Counts
	s[march.EvInstructions] = 5000
	s[march.EvL1DLoads] = 1200
	uniform := []march.Counts{s, s, s, s}
	segs := SegmentTrace(uniform)
	if len(segs) != 1 || segs[0].Start != 0 || segs[0].End != 4 {
		t.Fatalf("uniform trace segments = %+v, want one [0,4) segment", segs)
	}
	if got := segs[0].Counts.Get(march.EvInstructions); got != 20000 {
		t.Fatalf("segment sum = %d, want 20000", got)
	}
}

// TestBaselineReconstruction is the acceptance criterion's headline: on
// held-out, never-profiled specs under the baseline defense, the
// subsystem recovers the exact layer count on ≥90% of victims and the
// per-segment layer kind at ≥90% accuracy — and the
// reconstruct-then-validate footprint check agrees with the measured
// victim profiles.
func TestBaselineReconstruction(t *testing.T) {
	res, err := runCampaign(testConfig(t, defense.Baseline))
	if err != nil {
		t.Fatal(err)
	}
	if res.Padded {
		t.Fatal("baseline campaign reported as padded")
	}
	if res.ExactCountRate < 0.9 {
		t.Fatalf("exact layer-count rate = %.3f, want >= 0.9", res.ExactCountRate)
	}
	if res.MeanKindAccuracy < 0.9 {
		t.Fatalf("mean kind accuracy = %.3f, want >= 0.9", res.MeanKindAccuracy)
	}
	for _, v := range res.Victims {
		if !v.BoundaryMatch {
			t.Fatalf("victim %d (%s): segmenter missed the attribution boundaries", v.ArchID, v.Name)
		}
	}
	if res.MeanParamRelErr < 0 || res.MeanParamRelErr > 0.3 {
		t.Fatalf("mean hyper-parameter relative error = %.3f, want (0, 0.3]", res.MeanParamRelErr)
	}
	if res.MeanFootprintRelErr < 0 || res.MeanFootprintRelErr > 0.3 {
		t.Fatalf("mean footprint verification error = %.3f, want (0, 0.3]", res.MeanFootprintRelErr)
	}
}

// TestPaddedEnvelopeCollapsesReconstruction is the defense direction: the
// envelope-padded deployment's constant-rate trace carries no layer
// structure, so kind accuracy falls to within 1.5× of chance and the
// layer count is essentially never exact.
func TestPaddedEnvelopeCollapsesReconstruction(t *testing.T) {
	res, err := runCampaign(testConfig(t, defense.PaddedEnvelope))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Padded {
		t.Fatal("padded-envelope campaign not padded")
	}
	if res.MeanKindAccuracy > 1.5*res.ChanceKind {
		t.Fatalf("padded kind accuracy = %.3f, want <= 1.5x chance (%.3f)", res.MeanKindAccuracy, res.ChanceKind)
	}
	if res.ExactCountRate > 0.2 {
		t.Fatalf("padded exact layer-count rate = %.3f, want <= 0.2", res.ExactCountRate)
	}
	for _, v := range res.Victims {
		if v.BoundaryMatch {
			t.Fatalf("victim %d: padded trace still exposes the attribution boundaries", v.ArchID)
		}
	}
	// The footprint check runs against *measured* profiles of the deployed
	// padded targets, which the envelope makes identical across victims
	// (constant-time kernels + equalized pads); the recovered stack is the
	// same for every victim too, so every verification error must agree
	// exactly. If the deployment silently stopped padding, the per-victim
	// measured L1 loads would differ and so would these values.
	for _, v := range res.Victims[1:] {
		if v.FootprintRelErr != res.Victims[0].FootprintRelErr {
			t.Fatalf("victim %d footprint error %v differs from victim 0's %v — padded deployments are not equalized",
				v.ArchID, v.FootprintRelErr, res.Victims[0].FootprintRelErr)
		}
	}
}

// TestPaddedTraceMatchesDeployedFootprint ties the synthesized padded
// observer trace to the *implemented* defense: the trace's counter
// totals must equal the measured steady-state per-classification deltas
// of a real PaddedEnvelope deployment of every victim, on every
// directly-counted event. If Hardened.Classify stopped applying the pad
// (or the envelope stopped covering an event), the homogeneous trace the
// collapse results are scored on would no longer describe the deployment
// and this fails.
func TestPaddedTraceMatchesDeployedFootprint(t *testing.T) {
	c, err := NewCampaign(testConfig(t, defense.PaddedEnvelope))
	if err != nil {
		t.Fatal(err)
	}
	trace := paddedTrace(c.Env, c.cfg.Quantum)
	var total march.Counts
	for _, s := range trace.Samples {
		for e := range total {
			total[e] += s[e]
		}
	}
	direct := []march.Event{
		march.EvInstructions, march.EvBranches, march.EvBranchMisses,
		march.EvCacheReferences, march.EvCacheMisses,
		march.EvL1DLoads, march.EvL1DLoadMisses,
		march.EvLLCLoads, march.EvLLCLoadMisses,
		march.EvDTLBLoads, march.EvDTLBLoadMisses,
	}
	input := c.cfg.Inputs[0]
	for id, net := range c.Nets {
		engine, err := march.NewEngine(march.Config{Hierarchy: instrument.SimHierarchy()})
		if err != nil {
			t.Fatal(err)
		}
		target, err := defense.New(net, engine, defense.Config{
			Level:         defense.PaddedEnvelope,
			Runtime:       instrument.NoRuntime(),
			Envelope:      c.Env,
			EnvelopeIndex: id,
		})
		if err != nil {
			t.Fatal(err)
		}
		engine.ColdReset()
		for i := 0; i < traceWarmup; i++ {
			if _, err := target.Classify(input); err != nil {
				t.Fatal(err)
			}
		}
		before := engine.Counts()
		if _, err := target.Classify(input); err != nil {
			t.Fatal(err)
		}
		delta := engine.Counts().Sub(before)
		for _, e := range direct {
			if delta.Get(e) != total.Get(e) {
				t.Fatalf("victim %d: deployed padded %s = %d, synthesized trace totals %d — the observer model diverged from the deployment",
					id, e, delta.Get(e), total.Get(e))
			}
		}
	}
}

// TestWorkerInvariance: the campaign's serialized result is
// byte-identical at workers 1, 2 and 5 (an uneven split of the 6+4
// reference traces and the 4 rebuilt victims), at baseline and with the
// victims envelope-padded, so the fanned-out traces, footprint checks
// and envelope are covered as well as the collection (run under -race
// in CI).
func TestWorkerInvariance(t *testing.T) {
	for _, level := range []defense.Level{defense.Baseline, defense.PaddedEnvelope} {
		run := func(workers int) []byte {
			cfg := testConfig(t, level)
			cfg.Workers = workers
			cfg.HoldoutSize = 4
			cfg.TrainSize = 6
			res, err := runCampaign(cfg)
			if err != nil {
				t.Fatal(err)
			}
			data, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			return data
		}
		one := run(1)
		for _, workers := range []int{2, 5} {
			if got := run(workers); string(one) != string(got) {
				t.Fatalf("%s: topo results differ across worker counts:\n  workers=1: %s\n  workers=%d: %s", level, one, workers, got)
			}
		}
	}
}

// degenerateStacks are recovered stacks that are not realizable on a
// 12×12×1 input, and saneStack one that is.
var (
	degenerateStacks = []struct {
		name    string
		guesses []LayerGuess
	}{
		{"empty", nil},
		{"conv after dense", []LayerGuess{{Kind: "dense", Param: 8}, {Kind: "conv", Param: 4, Kernel: 3}}},
		{"pool after dense", []LayerGuess{{Kind: "dense", Param: 8}, {Kind: "pool"}}},
		{"unknown kind", []LayerGuess{{Kind: "wat"}}},
		{"oversized kernel", []LayerGuess{{Kind: "conv", Param: 4, Kernel: 31}}},
		{"zero width dense", []LayerGuess{{Kind: "dense", Param: 0}}},
		{"pool x4 to 0x0", []LayerGuess{{Kind: "pool"}, {Kind: "pool"}, {Kind: "pool"}, {Kind: "pool"}}},
	}
	saneStack = []LayerGuess{
		{Kind: "conv", Param: 4, Kernel: 3}, {Kind: "relu"}, {Kind: "pool"},
		{Kind: "dense", Param: 4}, {Kind: "relu"}, {Kind: "dense", Param: 2},
	}
)

// TestBuildRecoveredDegenerate: unrealizable recovered stacks must fail
// to rebuild (and therefore report an unverifiable reconstruction)
// instead of panicking or silently building something else.
func TestBuildRecoveredDegenerate(t *testing.T) {
	for _, tc := range degenerateStacks {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := buildRecovered(tc.guesses, 12, 12, 1, 4, 1); err == nil {
				t.Fatalf("degenerate stack %q built successfully", tc.name)
			}
		})
	}
	// A sane stack must build.
	net, err := buildRecovered(saneStack, 12, 12, 1, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(trueTopology(net)); got != len(saneStack) {
		t.Fatalf("rebuilt stack has %d observable layers, want %d", got, len(saneStack))
	}
}

// TestEstimatorSolver pins the ridge least-squares machinery on an exact
// synthetic system.
func TestEstimatorSolver(t *testing.T) {
	// target = 0.5 + 2·f1 − 1·f2 + 0.25·f3, exactly.
	var feats [][4]float64
	var targets []float64
	for i := 0; i < 12; i++ {
		f := [4]float64{1, float64(i%5) + 1, float64(i%3) + 2, float64(i%7) + 3}
		feats = append(feats, f)
		targets = append(targets, 0.5+2*f[1]-1*f[2]+0.25*f[3])
	}
	e := fitEstimator(feats, targets)
	if !e.ok {
		t.Fatal("estimator not fitted")
	}
	want := [4]float64{0.5, 2, -1, 0.25}
	for i := range want {
		if math.Abs(e.w[i]-want[i]) > 1e-3 {
			t.Fatalf("weight %d = %v, want %v (all: %v)", i, e.w[i], want[i], e.w)
		}
	}
}
