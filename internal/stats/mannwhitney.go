package stats

import "slices"

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
// for the normal approximation to be reasonable. It is SeqMannWhitney's
// merged rank walk over sorted copies of both samples.
func MannWhitneyU(a, b []float64) (MannWhitneyResult, error) {
	s := SeqMannWhitney{a: slices.Clone(a), b: slices.Clone(b)}
	slices.Sort(s.a)
	slices.Sort(s.b)
	return s.Test()
}
