package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// refMannWhitneyU is an independent sort-based rank-sum test: one sort
// of the pooled samples, mid-ranks per tie group. MannWhitneyU and
// SeqMannWhitney must match it bit for bit.
func refMannWhitneyU(a, b []float64) (MannWhitneyResult, error) {
	na, nb := len(a), len(b)
	if na < 2 || nb < 2 {
		return MannWhitneyResult{}, fmt.Errorf("stats: Mann-Whitney needs ≥2 samples per group, got %d and %d", na, nb)
	}
	type obs struct {
		v     float64
		first bool
	}
	all := make([]obs, 0, na+nb)
	for _, v := range a {
		all = append(all, obs{v, true})
	}
	for _, v := range b {
		all = append(all, obs{v, false})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })

	// Assign mid-ranks to ties; accumulate the tie correction term.
	n := float64(na + nb)
	var rankSumA float64
	var tieTerm float64
	for i := 0; i < len(all); {
		j := i
		for j < len(all) && all[j].v == all[i].v {
			j++
		}
		// Ranks i+1 .. j share the mid-rank.
		mid := float64(i+1+j) / 2
		t := float64(j - i)
		if t > 1 {
			tieTerm += t*t*t - t
		}
		for k := i; k < j; k++ {
			if all[k].first {
				rankSumA += mid
			}
		}
		i = j
	}

	u := rankSumA - float64(na)*float64(na+1)/2
	mean := float64(na) * float64(nb) / 2
	varU := float64(na) * float64(nb) / 12 * ((n + 1) - tieTerm/(n*(n-1)))
	if varU <= 0 {
		return MannWhitneyResult{U: u, Z: 0, P: 1}, nil
	}
	d := u - mean
	switch {
	case d > 0.5:
		d -= 0.5
	case d < -0.5:
		d += 0.5
	default:
		d = 0
	}
	z := d / math.Sqrt(varU)
	p := 2 * (1 - NormalCDF(math.Abs(z)))
	if p > 1 {
		p = 1
	}
	return MannWhitneyResult{U: u, Z: z, P: p}, nil
}

// sameBits reports whether two results agree bit for bit.
func sameBits(x, y MannWhitneyResult) bool {
	return math.Float64bits(x.U) == math.Float64bits(y.U) &&
		math.Float64bits(x.Z) == math.Float64bits(y.Z) &&
		math.Float64bits(x.P) == math.Float64bits(y.P)
}

// TestMannWhitneyUMatchesReferenceBitForBit: on random finite samples
// with heavy ties (a few shared integer levels, some continuous values,
// signed zeros), MannWhitneyU equals the sort-based reference bit for
// bit in both argument orders.
func TestMannWhitneyUMatchesReferenceBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	draw := func(n, levels int) []float64 {
		out := make([]float64, n)
		for i := range out {
			switch r := rng.Intn(10); {
			case r == 0:
				out[i] = rng.NormFloat64() * float64(levels)
			case r == 1:
				out[i] = math.Copysign(0, -1)
			default:
				out[i] = float64(rng.Intn(levels))
			}
		}
		return out
	}
	for trial := 0; trial < 500; trial++ {
		levels := 1 + rng.Intn(6)
		a, b := draw(2+rng.Intn(60), levels), draw(2+rng.Intn(60), levels)
		for _, pair := range [][2][]float64{{a, b}, {b, a}} {
			got, err := MannWhitneyU(pair[0], pair[1])
			if err != nil {
				t.Fatal(err)
			}
			want, err := refMannWhitneyU(pair[0], pair[1])
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(got, want) {
				t.Fatalf("trial %d: MannWhitneyU %+v != reference %+v\na=%v\nb=%v", trial, got, want, pair[0], pair[1])
			}
		}
	}
}

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
