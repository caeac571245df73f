package dataset

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func TestMNISTLikeShapesAndLabels(t *testing.T) {
	train, test, err := MNISTLike(Config{PerClassTrain: 5, PerClassTest: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(train.Samples) != 50 || len(test.Samples) != 30 {
		t.Fatalf("split sizes = %d/%d, want 50/30", len(train.Samples), len(test.Samples))
	}
	for _, sm := range train.Samples {
		if sm.Image.Shape[0] != 28 || sm.Image.Shape[1] != 28 || sm.Image.Shape[2] != 1 {
			t.Fatalf("mnist-like shape = %v", sm.Image.Shape)
		}
		if sm.Label < 0 || sm.Label >= 10 {
			t.Fatalf("label %d out of range", sm.Label)
		}
	}
}

func TestCIFARLikeShapesAndLabels(t *testing.T) {
	train, _, err := CIFARLike(Config{PerClassTrain: 4, PerClassTest: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(train.Samples) != 40 {
		t.Fatalf("train size = %d, want 40", len(train.Samples))
	}
	for _, sm := range train.Samples {
		if sm.Image.Shape[0] != 32 || sm.Image.Shape[1] != 32 || sm.Image.Shape[2] != 3 {
			t.Fatalf("cifar-like shape = %v", sm.Image.Shape)
		}
	}
}

func TestPixelsInUnitRange(t *testing.T) {
	train, _, _ := MNISTLike(Config{PerClassTrain: 3, PerClassTest: 1, Seed: 3})
	ctrain, _, _ := CIFARLike(Config{PerClassTrain: 3, PerClassTest: 1, Seed: 3})
	for _, set := range []*Set{train, ctrain} {
		for _, sm := range set.Samples {
			for i, v := range sm.Image.Data {
				if v < 0 || v > 1 {
					t.Fatalf("%s pixel %d = %v outside [0,1]", set.Name, i, v)
				}
			}
		}
	}
}

func TestDeterminismBySeed(t *testing.T) {
	a, _, _ := MNISTLike(Config{PerClassTrain: 2, PerClassTest: 1, Seed: 42})
	b, _, _ := MNISTLike(Config{PerClassTrain: 2, PerClassTest: 1, Seed: 42})
	if len(a.Samples) != len(b.Samples) {
		t.Fatal("sizes differ across identical seeds")
	}
	for i := range a.Samples {
		if a.Samples[i].Label != b.Samples[i].Label {
			t.Fatal("labels differ across identical seeds")
		}
		for j := range a.Samples[i].Image.Data {
			if a.Samples[i].Image.Data[j] != b.Samples[i].Image.Data[j] {
				t.Fatal("pixels differ across identical seeds")
			}
		}
	}
	c, _, _ := MNISTLike(Config{PerClassTrain: 2, PerClassTest: 1, Seed: 43})
	same := true
	for j := range a.Samples[0].Image.Data {
		if a.Samples[0].Image.Data[j] != c.Samples[0].Image.Data[j] {
			same = false
			break
		}
	}
	if same && a.Samples[0].Label == c.Samples[0].Label {
		t.Fatal("different seeds produced identical first sample")
	}
}

func TestClassesAreStatisticallyDistinct(t *testing.T) {
	// Mean images of different digit classes must differ substantially;
	// this is the property the whole paper depends on.
	train, _, _ := MNISTLike(Config{PerClassTrain: 20, PerClassTest: 1, Seed: 7})
	means := make([][]float64, 10)
	counts := make([]int, 10)
	for i := range means {
		means[i] = make([]float64, 28*28)
	}
	for _, sm := range train.Samples {
		for j, v := range sm.Image.Data {
			means[sm.Label][j] += float64(v)
		}
		counts[sm.Label]++
	}
	for c := 0; c < 10; c++ {
		for j := range means[c] {
			means[c][j] /= float64(counts[c])
		}
	}
	for a := 0; a < 10; a++ {
		for b := a + 1; b < 10; b++ {
			var dist float64
			for j := range means[a] {
				d := means[a][j] - means[b][j]
				dist += d * d
			}
			if math.Sqrt(dist) < 1.0 {
				t.Errorf("mean images of classes %d and %d too similar (L2 %.3f)", a, b, math.Sqrt(dist))
			}
		}
	}
}

func TestWithinClassVariation(t *testing.T) {
	// Jitter must make samples within a class differ (otherwise there is no
	// within-class distribution for the t-test).
	train, _, _ := MNISTLike(Config{PerClassTrain: 2, PerClassTest: 1, Seed: 9})
	zeros := train.ByClass()[0]
	a, b := train.Samples[zeros[0]].Image, train.Samples[zeros[1]].Image
	diff := 0.0
	for j := range a.Data {
		d := float64(a.Data[j] - b.Data[j])
		diff += d * d
	}
	if math.Sqrt(diff) < 0.1 {
		t.Fatalf("within-class samples nearly identical (L2 %.4f)", math.Sqrt(diff))
	}
}

func TestFilterAndAccessors(t *testing.T) {
	train, _, _ := MNISTLike(Config{PerClassTrain: 3, PerClassTest: 1, Seed: 4})
	if len(train.Inputs()) != len(train.Labels()) {
		t.Fatal("Inputs/Labels length mismatch")
	}
	by := train.ByClass()
	total := 0
	for _, idxs := range by {
		total += len(idxs)
	}
	if total != len(train.Samples) || len(by) != 10 {
		t.Fatalf("ByClass splits %d samples into %d classes, want a partition into 10", len(train.Samples), len(by))
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.PerClassTrain != 100 || c.PerClassTest != 20 {
		t.Fatalf("unexpected defaults: %+v", c)
	}
	train, test, err := CIFARLike(Config{PerClassTrain: 1, PerClassTest: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, set := range []*Set{train, test} {
		if set.Classes != 10 || len(set.ByClass()) != 10 {
			t.Fatalf("%s has %d classes, %d of them sampled, want 10", set.Name, set.Classes, len(set.ByClass()))
		}
	}
}

func TestDescribe(t *testing.T) {
	train, _, _ := MNISTLike(Config{PerClassTrain: 2, PerClassTest: 1, Seed: 1})
	s := Describe(train)
	if s == "" {
		t.Fatal("empty description")
	}
}

func TestQuickDigitImagesAlwaysValid(t *testing.T) {
	f := func(seed int64) bool {
		train, _, err := MNISTLike(Config{PerClassTrain: 1, PerClassTest: 1, Seed: seed})
		if err != nil {
			return false
		}
		for _, sm := range train.Samples {
			nz := 0
			for _, v := range sm.Image.Data {
				if v > 1e-6 || v < -1e-6 {
					nz++
				}
			}
			// A glyph must paint something but not everything.
			if nz == 0 || nz == sm.Image.Len() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestDrawLineRejectsNonFiniteEndpoints(t *testing.T) {
	// drawLine's int(float) conversions rely on finite endpoints; the
	// boundary guard must turn NaN/Inf inputs into a no-op rather than
	// letting platform-defined int(NaN) indices touch the image.
	cases := [][4]float64{
		{math.NaN(), 5, 20, 20},
		{5, math.NaN(), 20, 20},
		{5, 5, math.Inf(1), 20},
		{5, 5, 20, math.Inf(-1)},
	}
	for _, c := range cases {
		img := tensor.New(28, 28, 1)
		drawLine(img, c[0], c[1], c[2], c[3], 1.5)
		for i, v := range img.Data {
			if v != 0 {
				t.Fatalf("drawLine(%v) wrote pixel %d = %v; want untouched image", c, i, v)
			}
		}
	}
}

func TestDrawLineFiniteStillDraws(t *testing.T) {
	// The guard must not swallow legitimate strokes.
	img := tensor.New(28, 28, 1)
	drawLine(img, 4, 4, 24, 24, 1.5)
	sum := float32(0)
	for _, v := range img.Data {
		sum += v
	}
	if sum == 0 {
		t.Fatal("drawLine(finite endpoints) drew nothing")
	}
}
