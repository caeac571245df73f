// Package stats implements the hypothesis-testing machinery of the paper's
// Evaluator: Welch's two-sample t-test with two-tailed p-values from the
// Student-t distribution (via the regularized incomplete beta function),
// plus the descriptive statistics, histograms and multiple-testing
// corrections the reports are built from.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance (0 for n < 2).
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n-1)
}

// StdDev returns the sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// MinMax returns the extrema; it panics on empty input.
func MinMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		panic("stats: MinMax of empty slice")
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) by linear interpolation
// on the sorted copy of xs. It panics on empty input or q outside [0,1].
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("stats: Quantile of empty slice")
	}
	// NaN slips past both range comparisons and would make pos NaN,
	// leaving int(math.Floor(pos)) platform-defined — reject it with the
	// other out-of-range inputs.
	if math.IsNaN(q) || q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %v outside [0,1]", q))
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Summary bundles descriptive statistics of one distribution.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
	Median float64
}

// Summarize computes a Summary (zero value for empty input).
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	lo, hi := MinMax(xs)
	return Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		StdDev: StdDev(xs),
		Min:    lo,
		Max:    hi,
		Median: Quantile(xs, 0.5),
	}
}

// TTestResult holds the outcome of a two-sample test.
type TTestResult struct {
	T  float64 // t statistic
	DF float64 // Welch–Satterthwaite degrees of freedom
	P  float64 // two-tailed p-value
}

// Significant reports rejection of the null hypothesis at level alpha.
func (r TTestResult) Significant(alpha float64) bool { return r.P < alpha }

// WelchTTest runs Welch's unequal-variance two-sample t-test, the test the
// paper applies to per-category HPC distributions. Both samples need at
// least two points and nonzero combined variance.
func WelchTTest(a, b []float64) (TTestResult, error) {
	if len(a) < 2 || len(b) < 2 {
		return TTestResult{}, fmt.Errorf("stats: t-test needs ≥2 samples per group, got %d and %d", len(a), len(b))
	}
	ma, mb := Mean(a), Mean(b)
	va, vb := Variance(a), Variance(b)
	na, nb := float64(len(a)), float64(len(b))
	sa, sb := va/na, vb/nb
	se2 := sa + sb
	if se2 == 0 {
		if ma == mb {
			// Identical constants: no evidence of difference.
			return TTestResult{T: 0, DF: na + nb - 2, P: 1}, nil
		}
		return TTestResult{}, fmt.Errorf("stats: zero variance with different means; t undefined")
	}
	t := (ma - mb) / math.Sqrt(se2)
	df := se2 * se2 / (sa*sa/(na-1) + sb*sb/(nb-1))
	p := 2 * StudentTSF(math.Abs(t), df)
	if p > 1 {
		p = 1
	}
	return TTestResult{T: t, DF: df, P: p}, nil
}

// CohensD returns the pooled-variance standardized effect size.
func CohensD(a, b []float64) float64 {
	na, nb := float64(len(a)), float64(len(b))
	if na < 2 || nb < 2 {
		return 0
	}
	pooled := ((na-1)*Variance(a) + (nb-1)*Variance(b)) / (na + nb - 2)
	if pooled == 0 {
		return 0
	}
	return (Mean(a) - Mean(b)) / math.Sqrt(pooled)
}

// StudentTSF is the survival function P(T > t) for the Student-t
// distribution with df degrees of freedom, t ≥ 0.
func StudentTSF(t, df float64) float64 {
	if df <= 0 {
		return math.NaN()
	}
	if math.IsInf(t, 1) {
		return 0
	}
	x := df / (df + t*t)
	// P(T > t) = I_x(df/2, 1/2) / 2 for t >= 0.
	return 0.5 * RegIncBeta(df/2, 0.5, x)
}

// RegIncBeta computes the regularized incomplete beta function I_x(a,b)
// using the continued-fraction expansion (Numerical-Recipes-style betacf).
func RegIncBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	case a <= 0 || b <= 0:
		return math.NaN()
	}
	lbeta, _ := math.Lgamma(a + b)
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	front := math.Exp(lbeta - la - lb + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betacf(a, b, x) / a
	}
	return 1 - front*betacf(b, a, 1-x)/b
}

// betacf evaluates the continued fraction for the incomplete beta function.
func betacf(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-14
		fpmin   = 1e-300
	)
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// NormalCDF is the standard normal CDF.
func NormalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// HolmBonferroni applies the Holm step-down correction to a set of
// p-values at family-wise level alpha, returning a parallel slice of
// reject decisions.
func HolmBonferroni(ps []float64, alpha float64) []bool {
	n := len(ps)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return ps[idx[i]] < ps[idx[j]] })
	reject := make([]bool, n)
	for rank, i := range idx {
		if ps[i] <= alpha/float64(n-rank) {
			reject[i] = true
		} else {
			break // step-down stops at the first acceptance
		}
	}
	return reject
}

// Histogram is a fixed-width binning of a sample.
type Histogram struct {
	Lo, Hi float64
	Counts []int
	Total  int
}

// NewHistogram bins xs into `bins` equal-width buckets spanning [lo, hi].
// Values outside are clamped into the edge bins; NaN values are skipped
// (they have no bin, and int(NaN) is platform-defined).
func NewHistogram(xs []float64, lo, hi float64, bins int) (*Histogram, error) {
	if bins <= 0 {
		return nil, fmt.Errorf("stats: histogram needs positive bins, got %d", bins)
	}
	if !(hi > lo) {
		return nil, fmt.Errorf("stats: histogram range [%v,%v] is empty", lo, hi)
	}
	h := &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
	w := (hi - lo) / float64(bins)
	for _, x := range xs {
		if math.IsNaN(x) {
			continue
		}
		// int(±Inf) is platform-defined like int(NaN); clamp by sign so an
		// infinite value lands in the correct edge bin on every platform.
		if math.IsInf(x, 1) {
			h.Counts[bins-1]++
			h.Total++
			continue
		}
		if math.IsInf(x, -1) {
			h.Counts[0]++
			h.Total++
			continue
		}
		b := int((x - lo) / w)
		if b < 0 {
			b = 0
		}
		if b >= bins {
			b = bins - 1
		}
		h.Counts[b]++
		h.Total++
	}
	return h, nil
}

// MaxCount returns the largest bin count.
func (h *Histogram) MaxCount() int {
	m := 0
	for _, c := range h.Counts {
		if c > m {
			m = c
		}
	}
	return m
}
