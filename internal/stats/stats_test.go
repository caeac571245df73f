package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Fatalf("Mean = %v, want 5", m)
	}
	if v := Variance(xs); !approx(v, 32.0/7.0, 1e-12) {
		t.Fatalf("Variance = %v, want 32/7", v)
	}
	if s := StdDev(xs); !approx(s, math.Sqrt(32.0/7.0), 1e-12) {
		t.Fatalf("StdDev = %v", s)
	}
	if Mean(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Fatal("degenerate cases not zero")
	}
}

func TestMinMaxQuantile(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5}
	lo, hi := MinMax(xs)
	if lo != 1 || hi != 5 {
		t.Fatalf("MinMax = %v,%v", lo, hi)
	}
	if q := Quantile(xs, 0.5); q != 3 {
		t.Fatalf("median = %v, want 3", q)
	}
	if q := Quantile(xs, 0); q != 1 {
		t.Fatalf("q0 = %v, want 1", q)
	}
	if q := Quantile(xs, 1); q != 5 {
		t.Fatalf("q1 = %v, want 5", q)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Quantile(empty) did not panic")
		}
	}()
	Quantile(nil, 0.5)
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Median != 3 || s.Min != 1 || s.Max != 5 {
		t.Fatalf("Summary = %+v", s)
	}
	if (Summarize(nil) != Summary{}) {
		t.Fatal("empty summary not zero")
	}
}

func TestRegIncBetaKnownValues(t *testing.T) {
	// I_x(1,1) = x (uniform distribution).
	for _, x := range []float64{0.1, 0.25, 0.5, 0.9} {
		if got := RegIncBeta(1, 1, x); !approx(got, x, 1e-10) {
			t.Fatalf("I_%v(1,1) = %v, want %v", x, got, x)
		}
	}
	// Symmetry: I_x(a,b) = 1 - I_{1-x}(b,a).
	if got := RegIncBeta(2, 3, 0.4) + RegIncBeta(3, 2, 0.6); !approx(got, 1, 1e-10) {
		t.Fatalf("symmetry violated: %v", got)
	}
	// Edges.
	if RegIncBeta(2, 2, 0) != 0 || RegIncBeta(2, 2, 1) != 1 {
		t.Fatal("edge values wrong")
	}
	if !math.IsNaN(RegIncBeta(-1, 2, 0.5)) {
		t.Fatal("negative parameter accepted")
	}
}

func TestStudentTSFKnownValues(t *testing.T) {
	// Reference values from standard t tables.
	cases := []struct {
		t, df, want float64
	}{
		{0, 10, 0.5},
		{1.372, 10, 0.10},  // t_{0.10,10}
		{1.812, 10, 0.05},  // t_{0.05,10}
		{2.228, 10, 0.025}, // t_{0.025,10}
		{1.96, 1e6, 0.025}, // approaches the normal for huge df
		{2.576, 1e6, 0.005},
	}
	for _, c := range cases {
		got := StudentTSF(c.t, c.df)
		if !approx(got, c.want, 0.002) {
			t.Errorf("SF(t=%v, df=%v) = %v, want ≈%v", c.t, c.df, got, c.want)
		}
	}
	if StudentTSF(math.Inf(1), 5) != 0 {
		t.Fatal("SF(inf) != 0")
	}
	if !math.IsNaN(StudentTSF(1, 0)) {
		t.Fatal("df=0 accepted")
	}
}

func TestNormalCDF(t *testing.T) {
	cases := map[float64]float64{0: 0.5, 1.96: 0.975, -1.96: 0.025}
	for x, want := range cases {
		if got := NormalCDF(x); !approx(got, want, 1e-3) {
			t.Errorf("NormalCDF(%v) = %v, want %v", x, got, want)
		}
	}
}

func TestWelchTTestValidation(t *testing.T) {
	if _, err := WelchTTest([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("n=1 sample accepted")
	}
	if _, err := WelchTTest([]float64{1, 1}, []float64{2, 2}); err == nil {
		t.Fatal("zero variance with different means accepted")
	}
	r, err := WelchTTest([]float64{3, 3, 3}, []float64{3, 3})
	if err != nil || r.P != 1 || r.T != 0 {
		t.Fatalf("identical constants: %+v, %v", r, err)
	}
}

func TestWelchTTestAgainstReference(t *testing.T) {
	// Reference values computed independently (exact Welch formulas for t
	// and df; two-tailed p via Simpson integration of the t density):
	// t = -2.83526, df = 27.7136, p = 0.0084527.
	a := []float64{27.5, 21.0, 19.0, 23.6, 17.0, 17.9, 16.9, 20.1, 21.9, 22.6, 23.1, 19.6, 19.0, 21.7, 21.4}
	b := []float64{27.1, 22.0, 20.8, 23.4, 23.4, 23.5, 25.8, 22.0, 24.8, 20.2, 21.9, 22.1, 22.9, 30.0, 23.9}
	r, err := WelchTTest(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(r.T, -2.83526, 1e-4) {
		t.Errorf("t = %v, want -2.83526", r.T)
	}
	if !approx(r.P, 0.0084527, 1e-5) {
		t.Errorf("p = %v, want 0.0084527", r.P)
	}
	if !approx(r.DF, 27.7136, 0.01) {
		t.Errorf("df = %v, want ≈27.7136", r.DF)
	}
	if !r.Significant(0.05) || !r.Significant(0.01) || r.Significant(0.001) {
		t.Error("significance thresholds wrong")
	}
}

func TestWelchTTestSeparatedGaussians(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := make([]float64, 500)
	b := make([]float64, 500)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64() + 1 // one-sigma mean shift
	}
	r, err := WelchTTest(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if r.P > 1e-10 {
		t.Fatalf("p = %v for clearly separated samples", r.P)
	}
	if r.T > -10 {
		t.Fatalf("t = %v, want strongly negative", r.T)
	}
}

func TestWelchTTestNullDistribution(t *testing.T) {
	// Under H0, p should exceed 0.05 in roughly 95% of trials.
	rng := rand.New(rand.NewSource(2))
	rejections := 0
	const trials = 400
	for i := 0; i < trials; i++ {
		a := make([]float64, 40)
		b := make([]float64, 40)
		for j := range a {
			a[j] = rng.NormFloat64()
			b[j] = rng.NormFloat64()
		}
		r, err := WelchTTest(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if r.Significant(0.05) {
			rejections++
		}
	}
	rate := float64(rejections) / trials
	if rate > 0.10 {
		t.Fatalf("false positive rate = %v, want ≈0.05", rate)
	}
}

func TestCohensD(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{3, 4, 5, 6, 7}
	d := CohensD(a, b)
	if !approx(d, -2/math.Sqrt(2.5), 1e-9) {
		t.Fatalf("d = %v", d)
	}
	if CohensD([]float64{1}, b) != 0 {
		t.Fatal("degenerate d not zero")
	}
	if CohensD([]float64{2, 2}, []float64{2, 2}) != 0 {
		t.Fatal("zero-variance d not zero")
	}
}

func TestHolmBonferroni(t *testing.T) {
	ps := []float64{0.001, 0.02, 0.04, 0.2}
	rej := HolmBonferroni(ps, 0.05)
	// Holm at 0.05: 0.001 < 0.05/4 → reject; 0.02 > 0.05/3=0.0167 → stop.
	want := []bool{true, false, false, false}
	for i := range want {
		if rej[i] != want[i] {
			t.Fatalf("Holm[%d] = %v, want %v (all %v)", i, rej[i], want[i], rej)
		}
	}
	// All tiny → all rejected.
	rej = HolmBonferroni([]float64{1e-9, 1e-8, 1e-7}, 0.05)
	for i, r := range rej {
		if !r {
			t.Fatalf("tiny p %d not rejected", i)
		}
	}
}

func TestHistogram(t *testing.T) {
	xs := []float64{0.1, 0.2, 0.5, 0.9, 1.5, -2}
	h, err := NewHistogram(xs, 0, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if h.Total != 6 {
		t.Fatalf("total = %d, want 6", h.Total)
	}
	sum := 0
	for _, c := range h.Counts {
		sum += c
	}
	if sum != h.Total {
		t.Fatal("bin counts do not sum to total")
	}
	// Clamping: -2 lands in bin 0, 1.5 in the last bin.
	if h.Counts[0] < 1 || h.Counts[3] < 1 {
		t.Fatalf("clamping failed: %v", h.Counts)
	}
	if h.MaxCount() < 1 {
		t.Fatal("MaxCount wrong")
	}
	if _, err := NewHistogram(xs, 0, 1, 0); err == nil {
		t.Fatal("zero bins accepted")
	}
	if _, err := NewHistogram(xs, 1, 1, 4); err == nil {
		t.Fatal("empty range accepted")
	}
}

// TestHistogramSkipsNaN: int(NaN) binning is platform-defined, so NaN
// inputs must be skipped rather than counted into an arbitrary bin.
func TestHistogramSkipsNaN(t *testing.T) {
	h, err := NewHistogram([]float64{math.NaN(), 0.25, math.NaN(), 0.75}, 0, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if h.Total != 2 {
		t.Fatalf("total = %d, want 2 (NaNs counted)", h.Total)
	}
	if h.Counts[0] != 1 || h.Counts[1] != 1 {
		t.Fatalf("counts = %v, want [1 1]", h.Counts)
	}
}

// TestHistogramClampsInf: int(±Inf) is platform-defined like int(NaN), so
// infinite values must clamp into the correct edge bin by sign.
func TestHistogramClampsInf(t *testing.T) {
	h, err := NewHistogram([]float64{math.Inf(1), math.Inf(-1), 0.75}, 0, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if h.Total != 3 {
		t.Fatalf("total = %d, want 3", h.Total)
	}
	if h.Counts[0] != 1 || h.Counts[1] != 2 {
		t.Fatalf("counts = %v, want [1 2] (+Inf in top bin, -Inf in bottom)", h.Counts)
	}
}

func TestQuickTTestAntisymmetry(t *testing.T) {
	// t(a,b) = -t(b,a), identical p.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(50)
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = rng.NormFloat64() * 3
			b[i] = rng.NormFloat64()*2 + 0.5
		}
		r1, err1 := WelchTTest(a, b)
		r2, err2 := WelchTTest(b, a)
		if err1 != nil || err2 != nil {
			return false
		}
		return approx(r1.T, -r2.T, 1e-9) && approx(r1.P, r2.P, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickPValueInUnitInterval(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(30)
		a := make([]float64, n)
		b := make([]float64, n+rng.Intn(10))
		for i := range a {
			a[i] = rng.NormFloat64() * (1 + rng.Float64()*10)
		}
		for i := range b {
			b[i] = rng.NormFloat64()*(1+rng.Float64()*10) + rng.Float64()*20 - 10
		}
		r, err := WelchTTest(a, b)
		if err != nil {
			return true // degenerate draw; nothing to assert
		}
		return r.P >= 0 && r.P <= 1 && r.DF > 0 && !math.IsNaN(r.T)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickScaleInvarianceOfT(t *testing.T) {
	// Scaling both samples by the same positive factor leaves t unchanged.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		scale := 1 + rng.Float64()*999
		n := 10 + rng.Intn(20)
		a := make([]float64, n)
		b := make([]float64, n)
		as := make([]float64, n)
		bs := make([]float64, n)
		for i := range a {
			a[i] = rng.NormFloat64() + 1
			b[i] = rng.NormFloat64()
			as[i] = a[i] * scale
			bs[i] = b[i] * scale
		}
		r1, err1 := WelchTTest(a, b)
		r2, err2 := WelchTTest(as, bs)
		if err1 != nil || err2 != nil {
			return false
		}
		return approx(r1.T, r2.T, 1e-6*math.Abs(r1.T)+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickHistogramConservesMass(t *testing.T) {
	f := func(raw []float64) bool {
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				raw[i] = 0
			}
		}
		h, err := NewHistogram(raw, -10, 10, 8)
		if err != nil {
			return false
		}
		sum := 0
		for _, c := range h.Counts {
			sum += c
		}
		return sum == len(raw) && h.Total == len(raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantileRejectsNaN(t *testing.T) {
	// NaN slips past both `q < 0` and `q > 1` (every comparison with NaN
	// is false) and used to reach int(math.Floor(NaN)), whose result is
	// platform-defined — the exact class of silent cross-platform drift
	// the byte-identity goldens cannot survive.
	defer func() {
		if recover() == nil {
			t.Fatal("Quantile(xs, NaN) did not panic")
		}
	}()
	Quantile([]float64{1, 2, 3}, math.NaN())
}
