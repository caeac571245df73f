package stats

// Property-style tests for the hypothesis-testing machinery: instead of
// pinning single examples, these assert invariants — argument symmetry,
// p-value bounds, and null behavior on identical samples — over many
// seeded random sample pairs drawn from a mix of distributions (Gaussian,
// uniform, heavy ties, constants) shaped like HPC count data.

import (
	"math"
	"math/rand"
	"testing"
)

// sampleGen draws one random sample of length n for trial-specific rng.
type sampleGen struct {
	name string
	gen  func(rng *rand.Rand, n int) []float64
}

func generators() []sampleGen {
	return []sampleGen{
		{"gaussian", func(rng *rand.Rand, n int) []float64 {
			mean := 1000 + 500*rng.Float64()
			sd := 1 + 30*rng.Float64()
			out := make([]float64, n)
			for i := range out {
				out[i] = mean + sd*rng.NormFloat64()
			}
			return out
		}},
		{"uniform", func(rng *rand.Rand, n int) []float64 {
			lo := 100 * rng.Float64()
			w := 1 + 200*rng.Float64()
			out := make([]float64, n)
			for i := range out {
				out[i] = lo + w*rng.Float64()
			}
			return out
		}},
		// Integer counts with heavy ties — the shape real HPC events have.
		{"ties", func(rng *rand.Rand, n int) []float64 {
			base := float64(rng.Intn(50))
			out := make([]float64, n)
			for i := range out {
				out[i] = base + float64(rng.Intn(5))
			}
			return out
		}},
		{"constant", func(rng *rand.Rand, n int) []float64 {
			v := 10 * rng.Float64()
			out := make([]float64, n)
			for i := range out {
				out[i] = v
			}
			return out
		}},
	}
}

func sampleSizes(rng *rand.Rand) (int, int) {
	return 8 + rng.Intn(40), 8 + rng.Intn(40)
}

// TestWelchSymmetryAndBounds: Welch's t-test must be symmetric in its
// arguments (t negates, df and p unchanged) and p must stay in [0,1].
func TestWelchSymmetryAndBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	gens := generators()
	for trial := 0; trial < 300; trial++ {
		ga := gens[rng.Intn(len(gens))]
		gb := gens[rng.Intn(len(gens))]
		na, nb := sampleSizes(rng)
		a, b := ga.gen(rng, na), gb.gen(rng, nb)

		ab, errAB := WelchTTest(a, b)
		ba, errBA := WelchTTest(b, a)
		if (errAB == nil) != (errBA == nil) {
			t.Fatalf("trial %d (%s vs %s): asymmetric errors: %v vs %v", trial, ga.name, gb.name, errAB, errBA)
		}
		if errAB != nil {
			// Only the zero-variance-different-means case may error; it
			// needs two distinct constant samples.
			if ga.name != "constant" || gb.name != "constant" {
				t.Fatalf("trial %d (%s vs %s): unexpected error %v", trial, ga.name, gb.name, errAB)
			}
			continue
		}
		if ab.T != -ba.T {
			t.Fatalf("trial %d (%s vs %s): t not antisymmetric: %v vs %v", trial, ga.name, gb.name, ab.T, ba.T)
		}
		if ab.DF != ba.DF || ab.P != ba.P {
			t.Fatalf("trial %d (%s vs %s): df/p not symmetric: %+v vs %+v", trial, ga.name, gb.name, ab, ba)
		}
		if ab.P < 0 || ab.P > 1 || math.IsNaN(ab.P) {
			t.Fatalf("trial %d (%s vs %s): p=%v outside [0,1]", trial, ga.name, gb.name, ab.P)
		}
		if d := CohensD(a, b); d != -CohensD(b, a) {
			t.Fatalf("trial %d: Cohen's d not antisymmetric: %v vs %v", trial, d, CohensD(b, a))
		}
	}
}

// TestMannWhitneySymmetryAndBounds: the rank-sum test must satisfy
// U_a + U_b = n_a·n_b, negate z under argument swap, keep p symmetric and
// inside [0,1] — including under heavy ties.
func TestMannWhitneySymmetryAndBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	gens := generators()
	for trial := 0; trial < 300; trial++ {
		ga := gens[rng.Intn(len(gens))]
		gb := gens[rng.Intn(len(gens))]
		na, nb := sampleSizes(rng)
		a, b := ga.gen(rng, na), gb.gen(rng, nb)

		ab, err := MannWhitneyU(a, b)
		if err != nil {
			t.Fatalf("trial %d (%s vs %s): %v", trial, ga.name, gb.name, err)
		}
		ba, err := MannWhitneyU(b, a)
		if err != nil {
			t.Fatalf("trial %d (%s vs %s) swapped: %v", trial, ga.name, gb.name, err)
		}
		if sum, want := ab.U+ba.U, float64(na)*float64(nb); math.Abs(sum-want) > 1e-9*math.Max(1, want) {
			t.Fatalf("trial %d (%s vs %s): U_a+U_b = %v, want %v", trial, ga.name, gb.name, sum, want)
		}
		if ab.Z != -ba.Z {
			t.Fatalf("trial %d (%s vs %s): z not antisymmetric: %v vs %v", trial, ga.name, gb.name, ab.Z, ba.Z)
		}
		if ab.P != ba.P {
			t.Fatalf("trial %d (%s vs %s): p not symmetric: %v vs %v", trial, ga.name, gb.name, ab.P, ba.P)
		}
		if ab.P < 0 || ab.P > 1 || math.IsNaN(ab.P) {
			t.Fatalf("trial %d (%s vs %s): p=%v outside [0,1]", trial, ga.name, gb.name, ab.P)
		}
	}
}

// TestIdenticalSamplesNeverDistinguishable: a sample tested against
// itself must yield p = 1 under both tests — identical distributions can
// never be flagged as a leak, at any alpha.
func TestIdenticalSamplesNeverDistinguishable(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, g := range generators() {
		for trial := 0; trial < 50; trial++ {
			n, _ := sampleSizes(rng)
			x := g.gen(rng, n)

			w, err := WelchTTest(x, x)
			if err != nil {
				t.Fatalf("%s trial %d: Welch on identical samples errored: %v", g.name, trial, err)
			}
			if w.T != 0 || w.P != 1 {
				t.Fatalf("%s trial %d: Welch(x,x) = t %v, p %v; want t 0, p 1", g.name, trial, w.T, w.P)
			}
			if w.Significant(0.9999) {
				t.Fatalf("%s trial %d: identical samples flagged distinguishable", g.name, trial)
			}

			m, err := MannWhitneyU(x, x)
			if err != nil {
				t.Fatalf("%s trial %d: Mann-Whitney on identical samples errored: %v", g.name, trial, err)
			}
			if m.Z != 0 || m.P != 1 {
				t.Fatalf("%s trial %d: MannWhitney(x,x) = z %v, p %v; want z 0, p 1", g.name, trial, m.Z, m.P)
			}
		}
	}
}

// TestHolmBonferroniMonotone: Holm's step-down is uniformly more
// conservative than the uncorrected test and monotone in the p-value
// order — a rejected hypothesis must have p no larger than any accepted
// one.
func TestHolmBonferroniMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(12)
		ps := make([]float64, n)
		for i := range ps {
			ps[i] = rng.Float64()
			if rng.Float64() < 0.3 {
				ps[i] /= 1000 // sprinkle strong rejections
			}
		}
		alpha := 0.01 + 0.1*rng.Float64()
		rej := HolmBonferroni(ps, alpha)
		if len(rej) != n {
			t.Fatalf("trial %d: %d decisions for %d p-values", trial, len(rej), n)
		}
		maxRej, minAcc := -1.0, 2.0
		for i, r := range rej {
			if r && ps[i] >= alpha {
				t.Fatalf("trial %d: Holm rejected p=%v ≥ alpha=%v (less conservative than uncorrected)", trial, ps[i], alpha)
			}
			if r && ps[i] > maxRej {
				maxRej = ps[i]
			}
			if !r && ps[i] < minAcc {
				minAcc = ps[i]
			}
		}
		if maxRej > minAcc {
			t.Fatalf("trial %d: non-monotone decisions: rejected p=%v but accepted p=%v", trial, maxRej, minAcc)
		}
	}
}
