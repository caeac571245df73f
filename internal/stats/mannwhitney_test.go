package stats

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMannWhitneyValidation(t *testing.T) {
	if _, err := MannWhitneyU([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("n=1 accepted")
	}
}

func TestMannWhitneyIdenticalConstants(t *testing.T) {
	r, err := MannWhitneyU([]float64{5, 5, 5}, []float64{5, 5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if r.P != 1 || r.Z != 0 {
		t.Fatalf("identical constants: %+v", r)
	}
}

func TestMannWhitneySeparatedSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := make([]float64, 100)
	b := make([]float64, 100)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64() + 2
	}
	r, err := MannWhitneyU(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if r.P >= 0.001 {
		t.Fatalf("clearly separated samples not rejected: %+v", r)
	}
	if r.Z >= 0 {
		t.Fatalf("z = %v, want negative for a < b", r.Z)
	}
}

func TestMannWhitneyNullRate(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	rejections := 0
	const trials = 300
	for i := 0; i < trials; i++ {
		a := make([]float64, 30)
		b := make([]float64, 30)
		for j := range a {
			a[j] = rng.NormFloat64()
			b[j] = rng.NormFloat64()
		}
		r, err := MannWhitneyU(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if r.P < 0.05 {
			rejections++
		}
	}
	if rate := float64(rejections) / trials; rate > 0.10 {
		t.Fatalf("false positive rate = %v", rate)
	}
}

func TestMannWhitneyKnownSmallCase(t *testing.T) {
	// Hand-computed example: a = {1,2,3}, b = {4,5,6}; every b beats
	// every a so U(a) = 0 and the ranks are untied.
	r, err := MannWhitneyU([]float64{1, 2, 3}, []float64{4, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	if r.U != 0 {
		t.Fatalf("U = %v, want 0", r.U)
	}
	// And the mirrored order gives the maximal U = na*nb = 9.
	r2, _ := MannWhitneyU([]float64{4, 5, 6}, []float64{1, 2, 3})
	if r2.U != 9 {
		t.Fatalf("mirrored U = %v, want 9", r2.U)
	}
	if r.P != r2.P {
		t.Fatalf("p not symmetric: %v vs %v", r.P, r2.P)
	}
}

func TestMannWhitneyHandlesHeavyTies(t *testing.T) {
	// HPC counts are integers: ties are the norm, not the exception.
	a := []float64{10, 10, 10, 11, 11, 12, 12, 12}
	b := []float64{12, 12, 13, 13, 13, 14, 14, 14}
	r, err := MannWhitneyU(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if r.P > 0.05 {
		t.Fatalf("shifted tied samples not separated: %+v", r)
	}
	if r.P < 0 || r.P > 1 {
		t.Fatalf("p out of range: %v", r.P)
	}
}

func TestQuickMannWhitneyPInRange(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(40)
		a := make([]float64, n)
		b := make([]float64, n+rng.Intn(10))
		for i := range a {
			a[i] = float64(rng.Intn(20)) // integer-valued: many ties
		}
		for i := range b {
			b[i] = float64(rng.Intn(20)) + rng.Float64()*3
		}
		r, err := MannWhitneyU(a, b)
		if err != nil {
			return false
		}
		return r.P >= 0 && r.P <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMannWhitneyAgreesWithTTestOnGaussians(t *testing.T) {
	// For well-separated Gaussian samples both tests must reject; for
	// identical distributions with few samples, usually neither does.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := make([]float64, 60)
		b := make([]float64, 60)
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64() + 3
		}
		tt, err1 := WelchTTest(a, b)
		mw, err2 := MannWhitneyU(a, b)
		if err1 != nil || err2 != nil {
			return false
		}
		return tt.Significant(0.01) && mw.P < 0.01
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
