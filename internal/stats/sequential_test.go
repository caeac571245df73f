package stats

import (
	"math"
	"math/rand"
	"testing"
)

// TestSeqMannWhitneyMatchesBatchBitForBit streams observations into the
// sequential test in interleaved arrival order and asserts that every
// look with ≥2 samples per group — not just the final one — reproduces
// the sort-based reference rank-sum test bit-for-bit on the same prefix
// multisets. Heavy ties are included deliberately: the tie-correction
// accumulation order is where a naive incremental implementation drifts.
func TestSeqMannWhitneyMatchesBatchBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := []struct {
		name string
		gen  func() float64
	}{
		{"continuous", func() float64 { return rng.NormFloat64() * 1e4 }},
		{"heavy-ties", func() float64 { return float64(rng.Intn(6)) }},
		{"shifted", func() float64 { return rng.NormFloat64() + 0.8 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var seq SeqMannWhitney
			var a, b []float64
			for k := 0; k < 120; k++ {
				v := c.gen()
				if k%2 == 0 {
					seq.AddA(v)
					a = append(a, v)
				} else {
					seq.AddB(v)
					b = append(b, v)
				}
				if len(a) < 2 || len(b) < 2 {
					continue
				}
				got, err := seq.Test()
				if err != nil {
					t.Fatal(err)
				}
				want, err := refMannWhitneyU(a, b)
				if err != nil {
					t.Fatal(err)
				}
				if !sameBits(got, want) {
					t.Fatalf("look %d: sequential %+v != reference %+v (bit-identity broken)", k, got, want)
				}
			}
		})
	}
}

// TestSeqWelchMatchesBatch pins the Welch accumulator to the batch test
// at every look.
func TestSeqWelchMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var seq SeqWelch
	var a, b []float64
	for k := 0; k < 80; k++ {
		v := rng.NormFloat64()*3 + float64(k%5)
		if k%2 == 0 {
			seq.AddA(v)
			a = append(a, v)
		} else {
			seq.AddB(v)
			b = append(b, v)
		}
		if len(a) < 2 || len(b) < 2 {
			continue
		}
		got, err := seq.Test()
		if err != nil {
			t.Fatal(err)
		}
		want, err := WelchTTest(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("look %d: sequential %+v != batch %+v", k, got, want)
		}
	}
}

// TestSpendingBoundaryShape pins the schedule's defining properties:
// zero spend before any information, monotone growth, and exactly Alpha
// at exhaustion (so the final look applies the batch threshold).
func TestSpendingBoundaryShape(t *testing.T) {
	for _, alpha := range []float64{0.01, 0.05, 0.1} {
		sb := SpendingBoundary{Alpha: alpha}
		if got := sb.Spent(0); got != 0 {
			t.Fatalf("alpha=%v: Spent(0) = %v, want 0", alpha, got)
		}
		if got := sb.Spent(1); math.Abs(got-alpha) > 1e-12 {
			t.Fatalf("alpha=%v: Spent(1) = %v, want alpha", alpha, got)
		}
		if got := sb.Spent(2); math.Abs(got-alpha) > 1e-12 {
			t.Fatalf("alpha=%v: Spent is not clamped above t=1: %v", alpha, got)
		}
		prev := 0.0
		for i := 1; i <= 100; i++ {
			cur := sb.Spent(float64(i) / 100)
			if cur < prev {
				t.Fatalf("alpha=%v: spending not monotone at t=%v", alpha, float64(i)/100)
			}
			prev = cur
		}
	}
}

// nullTrialStops runs one sequential campaign under the null (both
// groups drawn from the same distribution) with looks every pair of
// observations, and reports whether the spending boundary ever fired
// before the budget was exhausted.
func nullTrialStops(rng *rand.Rand, alpha float64, budget, minSamples int) bool {
	var seq SeqMannWhitney
	spender := AlphaSpender{Boundary: SpendingBoundary{Alpha: alpha}}
	for k := 0; k < 2*budget; k++ {
		v := rng.NormFloat64()
		if k%2 == 0 {
			seq.AddA(v)
		} else {
			seq.AddB(v)
		}
		if seq.Na() < minSamples || seq.Nb() < minSamples {
			continue
		}
		res, err := seq.Test()
		if err != nil {
			return false
		}
		t := float64(seq.Na()+seq.Nb()) / float64(2*budget)
		if spender.Cross(res.P, t) {
			return true
		}
	}
	return false
}

// TestSequentialFalsePositiveRateUnderNull is the property test the
// boundary's soundness rests on: under the identical-samples null, the
// early-stopping monitor must not reject more often than the configured
// alpha, at several alphas. The increment-spending scheme gives this as
// a theorem (union bound over looks); the trials are seeded, so the
// realized counts are deterministic — this pins the false-positive rate
// of the exact look schedule the monitor uses, not just an asymptotic
// claim.
func TestSequentialFalsePositiveRateUnderNull(t *testing.T) {
	const trials = 150
	for _, alpha := range []float64{0.01, 0.05, 0.1} {
		rng := rand.New(rand.NewSource(int64(1000 * alpha)))
		stops := 0
		for i := 0; i < trials; i++ {
			if nullTrialStops(rng, alpha, 60, 8) {
				stops++
			}
		}
		rate := float64(stops) / trials
		// The guarantee is rate ≤ alpha; 0.03 absorbs the Monte-Carlo
		// noise of 150 trials.
		limit := alpha + 0.03
		if rate > limit {
			t.Errorf("alpha=%v: null stop rate %v (= %d/%d) exceeds %v", alpha, rate, stops, trials, limit)
		}
	}
}

// TestSeqMannWhitneyDetectsShift sanity-checks power: a clearly shifted
// alternative must cross the boundary well before exhaustion.
func TestSeqMannWhitneyDetectsShift(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	spender := AlphaSpender{Boundary: SpendingBoundary{Alpha: 0.05}}
	var seq SeqMannWhitney
	const budget = 200
	for k := 0; k < 2*budget; k++ {
		if k%2 == 0 {
			seq.AddA(rng.NormFloat64())
		} else {
			seq.AddB(rng.NormFloat64() + 2.5)
		}
		if seq.Na() < 8 || seq.Nb() < 8 {
			continue
		}
		res, err := seq.Test()
		if err != nil {
			t.Fatal(err)
		}
		tfrac := float64(seq.Na()+seq.Nb()) / float64(2*budget)
		if spender.Cross(res.P, tfrac) {
			if seq.Na()+seq.Nb() >= 2*budget {
				t.Fatalf("shift detected only at exhaustion")
			}
			return
		}
	}
	t.Fatal("clear shift never crossed the boundary")
}
