package instrument

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/march"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// tinyArch keeps instrumented tests fast.
func tinyArch() nn.Arch {
	return nn.Arch{Name: "tiny", InH: 12, InW: 12, InC: 1, Conv1: 4, Conv2: 4, Kernel: 3, Classes: 3}
}

func buildClassifier(t *testing.T, opts Options) (*Classifier, *nn.Network) {
	t.Helper()
	net, err := nn.Build(tinyArch(), rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := march.NewEngine(march.Config{Hierarchy: SimHierarchy()})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(net, eng, opts)
	if err != nil {
		t.Fatal(err)
	}
	return c, net
}

func randImage(seed int64) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	img := tensor.New(12, 12, 1)
	for i := range img.Data {
		// Half the pixels zero: gives the sparsity path real coverage.
		if rng.Float64() < 0.5 {
			img.Data[i] = rng.Float32()
		}
	}
	return img
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, nil, Options{}); err == nil {
		t.Fatal("nil args accepted")
	}
}

// TestNewRejectsEmptyOutput: a hand-built network whose output has no
// elements (a 2x2 pool over a 1x1 map) is refused at construction, before
// any weight lands in the arena, instead of panicking in its first
// Classify's argmax.
func TestNewRejectsEmptyOutput(t *testing.T) {
	pool, err := nn.NewMaxPool2([]int{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	net := &nn.Network{InShape: []int{1, 1, 1}, Layers: []nn.Layer{pool}, Classes: 2}
	eng, err := march.NewEngine(march.Config{Hierarchy: SimHierarchy()})
	if err != nil {
		t.Fatal(err)
	}
	mark := eng.Arena().Mark()
	_, err = New(net, eng, Options{})
	if err == nil || !strings.Contains(err.Error(), "no elements") {
		t.Fatalf("New = %v, want an empty-output error", err)
	}
	if got := eng.Arena().Mark(); got != mark {
		t.Fatalf("rejected network moved the arena mark %v -> %v", mark, got)
	}
}

func TestClassifyMatchesReferenceNetwork(t *testing.T) {
	// The instrumented forward pass must compute exactly the same
	// prediction as the reference nn implementation.
	c, net := buildClassifier(t, Options{SparsitySkip: true})
	for seed := int64(0); seed < 12; seed++ {
		img := randImage(seed)
		want, _, err := net.Predict(img)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Classify(img)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("seed %d: instrumented class %d, reference %d", seed, got, want)
		}
	}
}

func TestClassifyAllVariantsAgree(t *testing.T) {
	// Sparsity skip, dense mode and constant-time mode change the hardware
	// footprint, never the arithmetic result.
	variants := []Options{
		{SparsitySkip: true},
		{SparsitySkip: false},
		{ConstantTime: true},
	}
	img := randImage(99)
	var ref int
	for i, opts := range variants {
		c, net := buildClassifier(t, opts)
		got, err := c.Classify(img)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want, _, err := net.Predict(img)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("variant 0 disagrees with reference")
			}
			ref = got
		} else if got != ref {
			t.Fatalf("variant %d predicted %d, want %d", i, got, ref)
		}
	}
}

func TestClassifyRejectsWrongShape(t *testing.T) {
	c, _ := buildClassifier(t, Options{SparsitySkip: true})
	if _, err := c.Classify(tensor.New(5, 5, 1)); err == nil {
		t.Fatal("wrong input shape accepted")
	}
}

func TestClassifyRejectedInputsLeaveEngineUntouched(t *testing.T) {
	c, _ := buildClassifier(t, Options{SparsitySkip: true})
	before := c.Engine().Counts()
	for _, img := range []*tensor.Tensor{tensor.New(5, 5, 1), tensor.New(28, 28, 1)} {
		if _, err := c.Classify(img); err == nil || !strings.Contains(err.Error(), "input volume") {
			t.Fatalf("input of shape %v: error = %v", img.Shape, err)
		}
	}
	// Validation happens before any simulated access.
	if after := c.Engine().Counts(); after != before {
		t.Fatalf("rejected inputs perturbed counters:\nbefore %+v\nafter  %+v", before, after)
	}
}

func TestSparsityChangesFootprint(t *testing.T) {
	// A sparser input must retire fewer instructions under SparsitySkip.
	c, _ := buildClassifier(t, Options{SparsitySkip: true})
	dense := tensor.New(12, 12, 1)
	for i := range dense.Data {
		dense.Data[i] = 0.5
	}
	sparse := tensor.New(12, 12, 1)
	for i := 0; i < len(sparse.Data); i += 7 {
		sparse.Data[i] = 0.5
	}
	before := c.Engine().Counts()
	if _, err := c.Classify(dense); err != nil {
		t.Fatal(err)
	}
	mid := c.Engine().Counts()
	if _, err := c.Classify(sparse); err != nil {
		t.Fatal(err)
	}
	after := c.Engine().Counts()
	denseInstr := mid.Sub(before).Get(march.EvInstructions)
	sparseInstr := after.Sub(mid).Get(march.EvInstructions)
	if sparseInstr >= denseInstr {
		t.Fatalf("sparse input (%d instr) not cheaper than dense (%d)", sparseInstr, denseInstr)
	}
}

func TestNoSkipEqualizesWork(t *testing.T) {
	// Without the skip (and without ConstantTime), instruction counts for
	// different inputs of the same shape must be identical: the only
	// data-dependent part left is which branches are taken, not how many
	// instructions run. (ReLU's conditional store still differs, so allow
	// a tiny relative gap.)
	c, _ := buildClassifier(t, Options{SparsitySkip: false})
	a := randImage(1)
	b := randImage(2)
	before := c.Engine().Counts()
	if _, err := c.Classify(a); err != nil {
		t.Fatal(err)
	}
	mid := c.Engine().Counts()
	if _, err := c.Classify(b); err != nil {
		t.Fatal(err)
	}
	after := c.Engine().Counts()
	ia := mid.Sub(before).Get(march.EvInstructions)
	ib := after.Sub(mid).Get(march.EvInstructions)
	diff := float64(int64(ia)-int64(ib)) / float64(ia)
	if diff < 0 {
		diff = -diff
	}
	if diff > 0.01 {
		t.Fatalf("no-skip instruction counts differ by %.3f%% (%d vs %d)", diff*100, ia, ib)
	}
}

func TestConstantTimeRemovesDataBranches(t *testing.T) {
	// ConstantTime mode: branch count must be identical across inputs.
	c, _ := buildClassifier(t, Options{ConstantTime: true})
	a := randImage(3)
	b := randImage(4)
	before := c.Engine().Counts()
	if _, err := c.Classify(a); err != nil {
		t.Fatal(err)
	}
	mid := c.Engine().Counts()
	if _, err := c.Classify(b); err != nil {
		t.Fatal(err)
	}
	after := c.Engine().Counts()
	ba := mid.Sub(before).Get(march.EvBranches)
	bb := after.Sub(mid).Get(march.EvBranches)
	if ba != bb {
		t.Fatalf("constant-time branch counts differ: %d vs %d", ba, bb)
	}
	ma := mid.Sub(before).Get(march.EvBranchMisses)
	mb := after.Sub(mid).Get(march.EvBranchMisses)
	if ma != 0 || mb != 0 {
		t.Fatalf("constant-time mode mispredicted (%d, %d)", ma, mb)
	}
}

func TestBranchCountNearlyInputIndependent(t *testing.T) {
	// With the skip enabled, the *number* of data-dependent branches is
	// fixed by the architecture; only loop-overhead branches vary. Total
	// branches across different inputs must agree within a few percent —
	// the property behind the paper's mostly-insignificant Table 1
	// branches column.
	c, _ := buildClassifier(t, Options{SparsitySkip: true})
	counts := make([]uint64, 0, 4)
	prev := c.Engine().Counts()
	for seed := int64(10); seed < 14; seed++ {
		if _, err := c.Classify(randImage(seed)); err != nil {
			t.Fatal(err)
		}
		cur := c.Engine().Counts()
		counts = append(counts, cur.Sub(prev).Get(march.EvBranches))
		prev = cur
	}
	lo, hi := counts[0], counts[0]
	for _, v := range counts {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if spread := float64(hi-lo) / float64(hi); spread > 0.05 {
		t.Fatalf("branch counts vary by %.1f%% across inputs: %v", spread*100, counts)
	}
}

// TestColdStartIncreasesMisses: a classification on a cold-reset engine
// (the state every shard starts from) misses more than a warm one.
func TestColdStartIncreasesMisses(t *testing.T) {
	warm, _ := buildClassifier(t, Options{SparsitySkip: true})
	cold, _ := buildClassifier(t, Options{SparsitySkip: true})
	img := randImage(7)
	// Warm both with two classifications, then measure the third.
	for i := 0; i < 2; i++ {
		if _, err := warm.Classify(img); err != nil {
			t.Fatal(err)
		}
		if _, err := cold.Classify(img); err != nil {
			t.Fatal(err)
		}
	}
	cold.Engine().ColdReset()
	wBefore := warm.Engine().Counts()
	cBefore := cold.Engine().Counts()
	warm.Classify(img)
	cold.Classify(img)
	wMiss := warm.Engine().Counts().Sub(wBefore).Get(march.EvCacheMisses)
	cMiss := cold.Engine().Counts().Sub(cBefore).Get(march.EvCacheMisses)
	if cMiss <= wMiss {
		t.Fatalf("cold start misses (%d) not above warm (%d)", cMiss, wMiss)
	}
}

func TestRuntimeModelInflatesCounts(t *testing.T) {
	quiet, _ := buildClassifier(t, Options{SparsitySkip: true, Runtime: NoRuntime()})
	loud, _ := buildClassifier(t, Options{SparsitySkip: true, Runtime: DefaultRuntime(), Seed: 3})
	img := randImage(5)
	qb := quiet.Engine().Counts()
	quiet.Classify(img)
	qd := quiet.Engine().Counts().Sub(qb)
	lb := loud.Engine().Counts()
	loud.Classify(img)
	ld := loud.Engine().Counts().Sub(lb)
	if ld.Get(march.EvInstructions) < 10*qd.Get(march.EvInstructions) {
		t.Fatalf("runtime model did not dominate instructions: %d vs %d",
			ld.Get(march.EvInstructions), qd.Get(march.EvInstructions))
	}
	if ld.Get(march.EvCacheMisses) <= qd.Get(march.EvCacheMisses) {
		t.Fatal("runtime model added no cache misses")
	}
}

func TestRuntimeJitterVariesAcrossRuns(t *testing.T) {
	c, _ := buildClassifier(t, Options{SparsitySkip: true, Runtime: DefaultRuntime(), Seed: 11})
	img := randImage(6)
	var deltas []uint64
	prev := c.Engine().Counts()
	for i := 0; i < 3; i++ {
		c.Classify(img)
		cur := c.Engine().Counts()
		deltas = append(deltas, cur.Sub(prev).Get(march.EvInstructions))
		prev = cur
	}
	if deltas[0] == deltas[1] && deltas[1] == deltas[2] {
		t.Fatal("runtime jitter produced identical counts for identical inputs")
	}
}

func TestActivationAddressesStableAcrossRuns(t *testing.T) {
	// The arena must be rewound after every classification so a serving
	// process reuses activation buffers (no unbounded growth).
	c, _ := buildClassifier(t, Options{SparsitySkip: true})
	used := c.Engine().Arena().Mark().Base
	for i := 0; i < 5; i++ {
		if _, err := c.Classify(randImage(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Engine().Arena().Mark().Base; got != used {
		t.Fatalf("arena grew across classifications: bump pointer %#x -> %#x", used, got)
	}
}

func TestSimHierarchyGeometry(t *testing.T) {
	h := SimHierarchy()
	if len(h.Levels) != 3 {
		t.Fatalf("levels = %d", len(h.Levels))
	}
	if h.Last().Config().Size != 32<<10 {
		t.Fatalf("LLC size = %d, want 32KiB", h.Last().Config().Size)
	}
}

func TestNewEngineHasNoise(t *testing.T) {
	e, err := NewEngine(42)
	if err != nil {
		t.Fatal(err)
	}
	if e.Noise() == nil {
		t.Fatal("NewEngine engine has no noise model")
	}
}
