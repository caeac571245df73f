package defense

import (
	"math/rand"
	"testing"

	"repro/internal/instrument"
	"repro/internal/march"
	"repro/internal/march/cache"
	"repro/internal/nn"
	"repro/internal/tensor"
)

func smallHierarchy(t *testing.T) *cache.Hierarchy {
	t.Helper()
	h, err := cache.NewHierarchy(
		cache.Config{Name: "L1D", Size: 512, LineSize: 64, Assoc: 2, Policy: cache.TreePLRU},
		cache.Config{Name: "L2", Size: 1024, LineSize: 64, Assoc: 2, Policy: cache.TreePLRU},
		cache.Config{Name: "LLC", Size: 2048, LineSize: 64, Assoc: 4, Policy: cache.LRU},
	)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func buildHardened(t *testing.T, level Level) *Hardened {
	t.Helper()
	net, err := nn.Build(nn.Arch{Name: "tiny", InH: 12, InW: 12, InC: 1, Conv1: 4, Conv2: 4, Kernel: 3, Classes: 3}, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := march.NewEngine(march.Config{Hierarchy: smallHierarchy(t)})
	if err != nil {
		t.Fatal(err)
	}
	h, err := New(net, eng, Config{Level: level, Seed: 7, Runtime: instrument.NoRuntime()})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func image(seed int64, density float64) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	img := tensor.New(12, 12, 1)
	for i := range img.Data {
		if rng.Float64() < density {
			img.Data[i] = 0.3 + rng.Float32()*0.7
		}
	}
	return img
}

func TestLevelString(t *testing.T) {
	names := map[Level]string{
		Baseline: "baseline", DenseExecution: "dense-execution",
		ConstantTime: "constant-time", NoiseInjection: "noise-injection",
		Level(9): "level(9)",
	}
	for l, want := range names {
		if l.String() != want {
			t.Errorf("Level(%d) = %q, want %q", int(l), l.String(), want)
		}
	}
}

func TestNewRejectsUnknownLevel(t *testing.T) {
	net, _ := nn.Build(nn.Arch{Name: "t", InH: 12, InW: 12, InC: 1, Conv1: 2, Conv2: 2, Kernel: 3, Classes: 2}, rand.New(rand.NewSource(1)))
	eng, _ := march.NewEngine(march.Config{})
	if _, err := New(net, eng, Config{Level: Level(42)}); err == nil {
		t.Fatal("unknown level accepted")
	}
}

func TestAllLevelsPredictIdentically(t *testing.T) {
	img := image(5, 0.5)
	var ref int
	for i, level := range []Level{Baseline, DenseExecution, ConstantTime, NoiseInjection} {
		h := buildHardened(t, level)
		got, err := h.Classify(img)
		if err != nil {
			t.Fatal(err)
		}
		if h.level != level {
			t.Fatalf("level = %v, want %v", h.level, level)
		}
		if i == 0 {
			ref = got
		} else if got != ref {
			t.Fatalf("%v predicted %d, baseline predicted %d", level, got, ref)
		}
	}
}

// footprintDelta measures |instructions(sparse) - instructions(dense)| for
// a defense level — the input dependence the defenses should remove.
func footprintDelta(t *testing.T, level Level, ev march.Event) float64 {
	t.Helper()
	h := buildHardened(t, level)
	sparse := image(10, 0.05)
	dense := image(11, 0.95)
	before := h.Engine().Counts()
	if _, err := h.Classify(sparse); err != nil {
		t.Fatal(err)
	}
	mid := h.Engine().Counts()
	if _, err := h.Classify(dense); err != nil {
		t.Fatal(err)
	}
	after := h.Engine().Counts()
	a := float64(mid.Sub(before).Get(ev))
	b := float64(after.Sub(mid).Get(ev))
	d := a - b
	if d < 0 {
		d = -d
	}
	return d
}

func TestDenseExecutionRemovesWorkDependence(t *testing.T) {
	leaky := footprintDelta(t, Baseline, march.EvInstructions)
	hardened := footprintDelta(t, DenseExecution, march.EvInstructions)
	if hardened*10 > leaky {
		t.Fatalf("dense execution instruction delta %v not ≪ baseline %v", hardened, leaky)
	}
}

func TestConstantTimeRemovesBranchDependence(t *testing.T) {
	if d := footprintDelta(t, ConstantTime, march.EvBranches); d != 0 {
		t.Fatalf("constant-time branch delta = %v, want 0", d)
	}
	if d := footprintDelta(t, ConstantTime, march.EvBranchMisses); d != 0 {
		t.Fatalf("constant-time branch-miss delta = %v, want 0", d)
	}
}

func TestNoiseInjectionAddsTraffic(t *testing.T) {
	base := buildHardened(t, Baseline)
	noisy := buildHardened(t, NoiseInjection)
	img := image(12, 0.5)
	bb := base.Engine().Counts()
	base.Classify(img)
	baseRefs := base.Engine().Counts().Sub(bb).Get(march.EvCacheReferences)
	nb := noisy.Engine().Counts()
	noisy.Classify(img)
	noisyRefs := noisy.Engine().Counts().Sub(nb).Get(march.EvCacheReferences)
	if noisyRefs <= baseRefs {
		t.Fatalf("noise injection refs %d not above baseline %d", noisyRefs, baseRefs)
	}
}

func TestNoiseInjectionVariesAcrossRuns(t *testing.T) {
	h := buildHardened(t, NoiseInjection)
	img := image(13, 0.5)
	var deltas []uint64
	prev := h.Engine().Counts()
	for i := 0; i < 3; i++ {
		if _, err := h.Classify(img); err != nil {
			t.Fatal(err)
		}
		cur := h.Engine().Counts()
		deltas = append(deltas, cur.Sub(prev).Get(march.EvCacheReferences))
		prev = cur
	}
	if deltas[0] == deltas[1] && deltas[1] == deltas[2] {
		t.Fatal("noise injection produced identical traffic across runs")
	}
}
