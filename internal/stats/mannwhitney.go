package stats

import (
	"fmt"
	"math"
	"sort"
)

// MannWhitneyResult holds the outcome of the rank-sum test.
type MannWhitneyResult struct {
	U float64 // Mann-Whitney U statistic (of the first sample)
	Z float64 // normal approximation z-score (tie-corrected)
	P float64 // two-tailed p-value (normal approximation)
}

// MannWhitneyU runs the two-sample Mann-Whitney U test (Wilcoxon rank-sum)
// with the tie-corrected normal approximation — the nonparametric
// cross-check the evaluator can use when the Gaussian assumptions behind
// the paper's t-test are in doubt. Samples should have ≥ 8 points each
// for the normal approximation to be reasonable.
func MannWhitneyU(a, b []float64) (MannWhitneyResult, error) {
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
		// All observations identical: no evidence of difference.
		return MannWhitneyResult{U: u, Z: 0, P: 1}, nil
	}
	// Continuity correction toward the mean.
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
